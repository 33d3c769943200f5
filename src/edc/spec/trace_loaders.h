// CSV-backed trace sources for the spec layer (ROADMAP: "trace-driven
// sources in sweeps").
//
// The paper's evaluation argument rests on sweeping designs against
// *measured* harvester datasets, not just synthetic generators. These
// loaders wire trace::read_csv into the spec layer: a "time,value" CSV
// (uniformly sampled; volts for voltage traces, watts for power traces)
// becomes a VoltageTraceSource / PowerTraceSource carrying the waveform as
// plain data. Because the waveform samples are part of the spec, loaded
// traces serialize canonically like every other source — measured-dataset
// sweeps are cacheable exactly like synthetic ones. A cache
// key names the samples by their SHA-256 (spec::serialize), and
// spec::document writes them out in full.
//
//   spec::SystemSpec s;
//   s.source = spec::load_power_trace_csv("datasets/office_pv.csv");
//
// The source label is the file's basename, so grid axes over different
// trace files stay distinguishable in reports (and in cache keys).
#pragma once

#include <string>
#include <vector>

#include "edc/spec/system_spec.h"

namespace edc::spec {

/// Loads a "time,volts" CSV into a rectifier-path trace source. Throws
/// std::invalid_argument when the file is missing, malformed, or not
/// uniformly sampled (see trace::read_csv).
[[nodiscard]] VoltageTraceSource load_voltage_trace_csv(
    const std::string& csv_path, Ohms series_resistance = 50.0);

/// Loads a "time,watts" CSV into a harvester-path trace source.
[[nodiscard]] PowerTraceSource load_power_trace_csv(const std::string& csv_path);

/// All regular "*.csv" files directly inside `dataset_dir`, sorted by
/// filename so every process enumerates a dataset directory identically
/// (grid order and the rows of a report depend on it). Throws
/// std::invalid_argument when the directory does not exist or holds no CSV
/// — a silently empty axis would make a zero-point grid. The building
/// block of the sweep layer's trace-directory axes
/// (Grid::voltage_trace_dir_axis / power_trace_dir_axis).
[[nodiscard]] std::vector<std::string> list_trace_csvs(
    const std::string& dataset_dir);

}  // namespace edc::spec
