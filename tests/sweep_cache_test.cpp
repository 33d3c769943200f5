// Cache correctness: a warm-cache rerun is bit-identical to the cold run,
// mutating any spec field or SimConfig knob invalidates exactly that
// point, non-cacheable specs always re-simulate, and SimResult itself
// round-trips through its canonical serialization byte-for-byte.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"
#include "edc/workloads/program.h"

namespace {

using namespace edc;

// A cheap but non-trivial base: powered DC supply, real checkpointing
// policy, and a short horizon so every test point simulates in
// milliseconds while still booting, executing and saving.
spec::SystemSpec cheap_spec() {
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 25.0, 0.5, 0.0, 50.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 20000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = 3;
  s.sim.t_end = 0.4;
  return s;
}

sweep::Grid cheap_grid() {
  sweep::Grid grid(cheap_spec());
  grid.capacitance_axis({10e-6, 22e-6})
      .workload_seed_axis({1, 2});
  return grid;
}

std::filesystem::path fresh_cache_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("edc_cache_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::string> serialized_rows(const std::vector<sim::SimResult>& rows) {
  std::vector<std::string> texts;
  texts.reserve(rows.size());
  for (const auto& row : rows) texts.push_back(sim::serialize_result(row));
  return texts;
}

TEST(ResultIo, RoundTripIsByteIdentical) {
  // Probe waveforms and state transitions exercise every section of the
  // result format.
  spec::SystemSpec s = cheap_spec();
  s.sim.probe_interval = 1e-3;
  auto system = spec::instantiate(s);
  const sim::SimResult result = system.run();
  ASSERT_FALSE(result.transitions.empty());
  ASSERT_FALSE(result.probes.names.empty());

  const std::string text = sim::serialize_result(result);
  const sim::SimResult reparsed = sim::parse_result(text);
  EXPECT_EQ(text, sim::serialize_result(reparsed));

  EXPECT_EQ(result.end_time, reparsed.end_time);
  EXPECT_EQ(result.harvested, reparsed.harvested);
  EXPECT_EQ(result.mcu.completed, reparsed.mcu.completed);
  EXPECT_EQ(result.mcu.saves_completed, reparsed.mcu.saves_completed);
  EXPECT_EQ(result.nvm_torn_writes, reparsed.nvm_torn_writes);
  EXPECT_EQ(result.nvm_commits, reparsed.nvm_commits);
  EXPECT_EQ(result.transitions.size(), reparsed.transitions.size());
  EXPECT_EQ(result.probes.names, reparsed.probes.names);
}

TEST(ResultIo, RejectsCorruptText) {
  auto system = spec::instantiate(cheap_spec());
  const std::string text = sim::serialize_result(system.run());
  EXPECT_THROW((void)sim::parse_result(""), canon::FormatError);
  EXPECT_THROW((void)sim::parse_result(text + "junk 1\n"), canon::FormatError);
  std::string unknown = text;
  unknown.insert(unknown.find("harvested"), "surprise 1\n");
  EXPECT_THROW((void)sim::parse_result(unknown), canon::FormatError);
}

TEST(SweepCache, WarmRerunIsBitIdenticalAndSimulatesNothing) {
  const auto dir = fresh_cache_dir("warm");
  const sweep::Grid grid = cheap_grid();

  sweep::Cache cold_cache(dir);
  sweep::RunnerOptions options;
  options.cache = &cold_cache;
  const auto cold = sweep::Runner(options).run(grid);
  const sweep::CacheStats cold_stats = cold_cache.stats();
  EXPECT_EQ(cold_stats.hits, 0u);
  EXPECT_EQ(cold_stats.misses, grid.size());
  EXPECT_EQ(cold_stats.stores, grid.size());

  // A brand-new Cache object over the same directory (a fresh process).
  sweep::Cache warm_cache(dir);
  options.cache = &warm_cache;
  const auto warm = sweep::Runner(options).run(grid);
  const sweep::CacheStats warm_stats = warm_cache.stats();
  EXPECT_EQ(warm_stats.hits, grid.size());
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_EQ(warm_stats.stores, 0u);

  EXPECT_EQ(serialized_rows(cold), serialized_rows(warm));

  // And both match an uncached run bit-for-bit.
  const auto uncached = sweep::Runner().run(grid);
  EXPECT_EQ(serialized_rows(uncached), serialized_rows(warm));
}

TEST(SweepCache, MutatingOneAxisValueInvalidatesExactlyThatPoint) {
  const auto dir = fresh_cache_dir("mutate");

  sweep::Cache cache(dir);
  sweep::RunnerOptions options;
  options.cache = &cache;

  sweep::Grid before(cheap_spec());
  before.capacitance_axis({10e-6, 22e-6, 47e-6});
  (void)sweep::Runner(options).run(before);
  EXPECT_EQ(cache.stats().stores, 3u);

  // Same grid with one axis value changed: the two unchanged points hit,
  // only the new value simulates.
  cache.reset_stats();
  sweep::Grid after(cheap_spec());
  after.capacitance_axis({10e-6, 33e-6, 47e-6});
  (void)sweep::Runner(options).run(after);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SweepCache, AnySimConfigKnobInvalidatesThePoint) {
  const auto dir = fresh_cache_dir("simconfig");
  sweep::Cache cache(dir);
  sweep::RunnerOptions options;
  options.cache = &cache;

  spec::SystemSpec s = cheap_spec();
  (void)sweep::Runner(options).run(sweep::Grid(s));
  EXPECT_EQ(cache.stats().stores, 1u);

  // dt is part of the canonical key even though it is "just" a solver
  // knob — a different step gives a numerically different trajectory.
  cache.reset_stats();
  s.sim.dt = 20e-6;
  (void)sweep::Runner(options).run(sweep::Grid(s));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.reset_stats();
  s.sim.dt = 10e-6;  // back to the original -> warm again
  (void)sweep::Runner(options).run(sweep::Grid(s));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SweepCache, NonCacheableSpecsAlwaysResimulate) {
  const auto dir = fresh_cache_dir("noncacheable");
  sweep::Cache cache(dir);
  sweep::RunnerOptions options;
  options.cache = &cache;

  spec::SystemSpec s = cheap_spec();
  s.workload.kind.clear();
  s.workload.factory = [] { return workloads::make_program("fft-small", 3); };
  ASSERT_FALSE(spec::is_cacheable(s));

  const sweep::Grid grid(s);
  const auto first = sweep::Runner(options).run(grid);
  const auto second = sweep::Runner(options).run(grid);
  const sweep::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.non_cacheable, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.stores, 0u);
  // Determinism still holds — it is only the memoisation that is skipped.
  EXPECT_EQ(serialized_rows(first), serialized_rows(second));
}

TEST(SweepCache, CorruptOrForeignEntriesDegradeToMisses) {
  const auto dir = fresh_cache_dir("corrupt");
  sweep::Cache cache(dir);

  const spec::SystemSpec s = cheap_spec();
  const std::string key = spec::serialize(s);

  auto system = spec::instantiate(s);
  const sim::SimResult result = system.run();
  cache.store(key, result);
  ASSERT_TRUE(cache.load(key).has_value());

  // Truncate the entry on disk: load must miss, not misparse.
  const std::filesystem::path entry = cache.entry_path(key);
  ASSERT_TRUE(std::filesystem::exists(entry));
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << "edc.CacheEntry v1\nspec_bytes 3\nabc";
  }
  EXPECT_FALSE(cache.load(key).has_value());

  // A different spec hashing (hypothetically) to the same file must also
  // miss: simulate a collision by storing entry bytes for another key at
  // our path.
  spec::SystemSpec other = s;
  other.workload.seed += 1;
  const std::string other_key = spec::serialize(other);
  cache.store(other_key, result);
  std::filesystem::copy_file(cache.entry_path(other_key), entry,
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(cache.load(other_key).has_value());
}

// Two traces that differ only in one sample's sign bit (0.0 vs -0.0) have
// different digests, so different keys: a cache filled for one misses for
// the other and simulates it, never replaying the other trace's row.
TEST(SweepCache, TracesDifferingInOneSampleBitNeverShareAnEntry) {
  std::vector<double> samples(2001);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = (i / 100) % 2 == 0 ? 4.0 : 0.0;
  }
  const auto traced = [&samples] {
    spec::SystemSpec s = cheap_spec();
    s.source = spec::VoltageTraceSource{trace::Waveform(0.0, 2e-4, samples), 50.0,
                                        "gust.csv"};
    return s;
  };
  const spec::SystemSpec a = traced();
  samples[1500] = -0.0;
  const spec::SystemSpec b = traced();
  EXPECT_NE(std::get<spec::VoltageTraceSource>(a.source).wave.digest(),
            std::get<spec::VoltageTraceSource>(b.source).wave.digest());
  const std::string key_a = spec::serialize(a);
  const std::string key_b = spec::serialize(b);
  EXPECT_NE(key_a, key_b);

  sweep::Cache cache(fresh_cache_dir("trace_bits"));
  sweep::RunnerOptions options;
  options.cache = &cache;
  (void)sweep::Runner(options).run(sweep::Grid(a));
  EXPECT_TRUE(cache.load(key_a).has_value());
  EXPECT_FALSE(cache.load(key_b).has_value());
  cache.reset_stats();
  (void)sweep::Runner(options).run(sweep::Grid(b));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_TRUE(cache.load(key_b).has_value());
}

// Every point of a trace grid shares one sample block, so parallel workers
// build their keys from one lazily computed digest (the race TSan watches).
TEST(SweepCache, ParallelTraceGridKeysShareOneDigest) {
  spec::SystemSpec base = cheap_spec();
  const trace::Waveform wave = trace::Waveform::sample(
      [](Seconds t) { return 3.0 + 2.0 * std::sin(60.0 * t); }, 0.0, 0.4, 4001);
  base.source = spec::VoltageTraceSource{wave, 50.0, "gust.csv"};
  sweep::Grid grid(base);
  grid.capacitance_axis({10e-6, 15e-6, 22e-6, 33e-6, 47e-6, 68e-6, 100e-6, 150e-6});

  sweep::Cache cache(fresh_cache_dir("trace_parallel"));
  sweep::RunnerOptions options;
  options.threads = 4;
  options.cache = &cache;
  const auto cold = sweep::Runner(options).run(grid);
  EXPECT_EQ(cache.stats().stores, grid.size());
  const auto warm = sweep::Runner(options).run(grid);
  EXPECT_EQ(cache.stats().hits, grid.size());
  EXPECT_EQ(serialized_rows(cold), serialized_rows(warm));
  EXPECT_NE(spec::serialize(grid.point(0).spec).find("sha256 " + wave.digest()),
            std::string::npos);
}

TEST(SweepCache, WallTimeSurvivesTheEntryRoundTrip) {
  const auto dir = fresh_cache_dir("micros");
  sweep::Cache cache(dir);
  const spec::SystemSpec s = cheap_spec();
  const std::string key = spec::serialize(s);
  auto system = spec::instantiate(s);
  cache.store(key, system.run(), 1234.5);
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->micros, 1234.5);
}

TEST(SweepCache, RunnerReportsTheOriginalCostOnWarmRuns) {
  // A warm re-run replays each point's *first* simulation cost from the
  // entry (not the near-zero load time), so a warm grid still reports what
  // each point costs to simulate.
  const auto dir = fresh_cache_dir("warm_micros");
  const sweep::Grid grid = cheap_grid();

  sweep::Cache cold_cache(dir);
  sweep::RunnerOptions options;
  options.cache = &cold_cache;
  sweep::RunReport cold_report;
  (void)sweep::Runner(options).run(grid, &cold_report);
  ASSERT_EQ(cold_report.micros.size(), grid.size());
  for (const double m : cold_report.micros) EXPECT_GT(m, 0.0);
  EXPECT_EQ(cold_report.fresh_count(), grid.size());

  sweep::Cache warm_cache(dir);
  options.cache = &warm_cache;
  sweep::RunReport warm_report;
  (void)sweep::Runner(options).run(grid, &warm_report);
  EXPECT_EQ(warm_cache.stats().hits, grid.size());
  EXPECT_EQ(warm_report.warm_count(), grid.size());
  // The canonical double encoding round-trips exactly, so the replayed
  // costs match the measured ones bit for bit.
  EXPECT_EQ(warm_report.micros, cold_report.micros);
}

TEST(SweepCache, FsckAcceptsHealthyAndFlagsCorruptEntries) {
  const auto dir = fresh_cache_dir("fsck");
  sweep::Cache cache(dir);
  const spec::SystemSpec s = cheap_spec();
  const std::string key = spec::serialize(s);
  auto system = spec::instantiate(s);
  cache.store(key, system.run(), 10.0);

  const std::filesystem::path entry = cache.entry_path(key);
  EXPECT_EQ(sweep::Cache::fsck_entry(entry), "");

  // A renamed entry no longer matches its embedded key's hash.
  const std::filesystem::path renamed =
      entry.parent_path() / "0000000000000000.edcres";
  std::filesystem::copy_file(entry, renamed);
  EXPECT_NE(sweep::Cache::fsck_entry(renamed), "");

  // Truncation is undecodable.
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << "edc.CacheEntry v2\nmicros 1\nspec_bytes 3\nab";
  }
  EXPECT_NE(sweep::Cache::fsck_entry(entry), "");
}

TEST(SweepCache, MapBypassesTheCache) {
  const auto dir = fresh_cache_dir("map");
  sweep::Cache cache(dir);
  sweep::RunnerOptions options;
  options.cache = &cache;
  const sweep::Grid grid(cheap_spec());

  const auto rows = sweep::Runner(options).map<int>(
      grid, [](const sweep::Point&, core::EnergyDrivenSystem&,
               const sim::SimResult&) { return 1; });
  EXPECT_EQ(rows.size(), 1u);
  const sweep::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.stores, 0u);
}

}  // namespace
