// CSV import/export for waveforms and trace sets, so experiments can be
// re-plotted outside the harness (the paper's dataset DOI provides CSVs of
// the same shape).
#pragma once

#include <iosfwd>
#include <string>

#include "edc/trace/waveform.h"

namespace edc::trace {

/// Writes "time,<name0>,<name1>,..." rows. All waveforms are resampled onto
/// the time grid of the first waveform. Numbers are written in their
/// shortest round-trip form, so read_csv recovers every double exactly.
void write_csv(std::ostream& out, const TraceSet& traces);

/// Writes a single waveform as "time,value" rows.
void write_csv(std::ostream& out, const std::string& name, const Waveform& wave);

/// Reads a single-column CSV ("time,value", header optional; further
/// columns are ignored) back into a waveform. Rows before the first numeric
/// time are headers. A data row whose value is missing or only partly
/// numeric is rejected with an error naming the row; surrounding whitespace
/// and '\r' line ends are accepted. The time column must be uniformly
/// spaced (within 1e-9 relative tolerance); throws std::invalid_argument
/// otherwise.
Waveform read_csv(std::istream& in);

}  // namespace edc::trace
