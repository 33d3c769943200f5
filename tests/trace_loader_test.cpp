// CSV trace loaders for the spec layer: measured-dataset waveforms become
// VoltageTraceSource/PowerTraceSource values that sweep, serialize, hash
// and therefore cache exactly like synthetic sources.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "edc/spec/serialize.h"
#include "edc/spec/trace_loaders.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"
#include "edc/trace/power_sources.h"
#include "edc/trace/voltage_sources.h"

namespace {

using namespace edc;

const std::string kFixtures = std::string(EDC_TESTS_DIR) + "/fixtures";

TEST(TraceLoader, LoadsPowerTraceFixture) {
  const spec::PowerTraceSource source =
      spec::load_power_trace_csv(kFixtures + "/pv_power_trace.csv");
  EXPECT_EQ(source.label, "pv_power_trace.csv");
  ASSERT_EQ(source.wave.size(), 12u);
  EXPECT_DOUBLE_EQ(source.wave.t0(), 0.0);
  EXPECT_DOUBLE_EQ(source.wave.dt(), 0.5);
  EXPECT_DOUBLE_EQ(source.wave.front(), 0.00029);
  EXPECT_DOUBLE_EQ(source.wave.back(), 0.0003);
  EXPECT_DOUBLE_EQ(source.wave.max(), 0.00071);

  // The loaded waveform drives the harvester path like any power source.
  const trace::WaveformPowerSource playback(source.wave, source.label);
  EXPECT_DOUBLE_EQ(playback.available_power(1.0), 0.00042);
  EXPECT_DOUBLE_EQ(playback.available_power(1.25), (0.00042 + 0.00055) / 2);
}

TEST(TraceLoader, LoadsVoltageTraceFixture) {
  const spec::VoltageTraceSource source =
      spec::load_voltage_trace_csv(kFixtures + "/gust_voltage_trace.csv", 220.0);
  EXPECT_EQ(source.label, "gust_voltage_trace.csv");
  EXPECT_DOUBLE_EQ(source.series_resistance, 220.0);
  ASSERT_EQ(source.wave.size(), 16u);
  EXPECT_DOUBLE_EQ(source.wave.dt(), 0.1);
  EXPECT_DOUBLE_EQ(source.wave.max(), 5.0);

  const trace::WaveformVoltageSource playback(source.wave, source.series_resistance,
                                              source.label);
  EXPECT_DOUBLE_EQ(playback.open_circuit_voltage(0.5), 5.0);
  EXPECT_DOUBLE_EQ(playback.series_resistance(), 220.0);
}

TEST(TraceLoader, MissingOrMalformedFileThrows) {
  EXPECT_THROW((void)spec::load_power_trace_csv(kFixtures + "/does_not_exist.csv"),
               std::invalid_argument);

  const std::string bad = std::string(testing::TempDir()) + "/bad_trace.csv";
  {
    std::ofstream out(bad, std::ios::trunc);
    out << "time,volts\n0,1\n1,2\n5,3\n";  // non-uniform time column
  }
  EXPECT_THROW((void)spec::load_voltage_trace_csv(bad), std::invalid_argument);
}

TEST(TraceLoader, LoadedTracesAreCacheableSpecData) {
  spec::SystemSpec s;
  s.source = spec::load_power_trace_csv(kFixtures + "/pv_power_trace.csv");
  s.storage.capacitance = 47e-6;
  s.workload.kind = "sense";
  s.sim.t_end = 0.2;

  ASSERT_TRUE(spec::is_cacheable(s));
  const std::string text = spec::document(s);
  EXPECT_EQ(text, spec::document(spec::parse_spec(text)));
  EXPECT_EQ(spec::serialize(spec::parse_spec(text)), spec::serialize(s));

  // Two independent loads of the same file produce the same canonical
  // bytes — the cache key is a pure function of the file contents.
  spec::SystemSpec again = s;
  again.source = spec::load_power_trace_csv(kFixtures + "/pv_power_trace.csv");
  EXPECT_EQ(spec::spec_hash(s), spec::spec_hash(again));

  // And the loaded source actually simulates (harvests from the trace).
  auto system = spec::instantiate(s);
  const sim::SimResult result = system.run();
  EXPECT_GT(result.harvested, 0.0);
}

/// Builds a throwaway dataset directory with a few uniformly-sampled
/// voltage CSVs (plus a non-CSV distractor).
std::string make_dataset_dir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&dir](const std::string& file, double scale) {
    std::ofstream out(dir / file, std::ios::trunc);
    out << "time,volts\n";
    for (int i = 0; i < 8; ++i) {
      out << i * 0.1 << ',' << scale * (i % 4 == 0 ? 0.0 : 3.0) << '\n';
    }
  };
  write("b_office.csv", 1.0);
  write("a_window.csv", 1.5);
  write("c_lab.csv", 0.5);
  std::ofstream(dir / "README.txt", std::ios::trunc) << "not a trace\n";
  return dir.string();
}

TEST(TraceLoader, ListTraceCsvsSortsAndValidates) {
  const std::string dir = make_dataset_dir("dataset_list");
  const auto paths = spec::list_trace_csvs(dir);
  ASSERT_EQ(paths.size(), 3u);  // README.txt skipped
  // Sorted by filename, so every process enumerates identically.
  EXPECT_NE(paths[0].find("a_window.csv"), std::string::npos);
  EXPECT_NE(paths[1].find("b_office.csv"), std::string::npos);
  EXPECT_NE(paths[2].find("c_lab.csv"), std::string::npos);

  EXPECT_THROW((void)spec::list_trace_csvs(dir + "/does_not_exist"),
               std::invalid_argument);
  const std::string empty_dir = std::string(testing::TempDir()) + "/dataset_empty";
  std::filesystem::create_directories(empty_dir);
  EXPECT_THROW((void)spec::list_trace_csvs(empty_dir), std::invalid_argument);
}

TEST(TraceLoader, TraceDirAxisMakesDatasetComparisonsOneLiners) {
  const std::string dir = make_dataset_dir("dataset_axis");

  spec::SystemSpec base;
  base.storage.capacitance = 22e-6;
  base.workload.kind = "sense";
  base.sim.t_end = 0.3;

  sweep::Grid grid(base);
  grid.voltage_trace_dir_axis("harvester", dir).capacitance_axis({10e-6, 22e-6});
  ASSERT_EQ(grid.size(), 6u);  // 3 datasets x 2 capacitances
  ASSERT_EQ(grid.axes()[0].name, "harvester");
  // Labels are the dataset file basenames, in sorted order.
  EXPECT_EQ(grid.axes()[0].values[0].label, "a_window.csv");
  EXPECT_EQ(grid.axes()[0].values[1].label, "b_office.csv");
  EXPECT_EQ(grid.axes()[0].values[2].label, "c_lab.csv");

  // Every point carries its dataset as plain spec data: cacheable and
  // simulable like any synthetic source.
  const auto point = grid.point(0);
  EXPECT_EQ(point.labels[0], "a_window.csv");
  EXPECT_TRUE(spec::is_cacheable(point.spec));
  const auto rows = sweep::Runner().run(grid);
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) EXPECT_GT(row.harvested, 0.0);
}

TEST(TraceLoader, VoltageTraceSweepsLikeAnyOtherSource) {
  spec::SystemSpec base;
  base.source = spec::load_voltage_trace_csv(kFixtures + "/gust_voltage_trace.csv");
  base.storage.capacitance = 22e-6;
  base.workload.kind = "fft-small";
  base.sim.t_end = 0.3;

  sweep::Grid grid(base);
  grid.capacitance_axis({10e-6, 22e-6});
  const auto rows = sweep::Runner().run(grid);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_GT(rows[0].harvested, 0.0);
  EXPECT_GT(rows[1].harvested, 0.0);
}

}  // namespace
