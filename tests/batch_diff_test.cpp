// Batch-vs-scalar differential suite (ctest label: batchdiff).
//
// The batched SoA kernel (sim/batch_kernel.h + sweep/batch.h) promises
// *bit-identity* with the scalar simulator: only the node ODE integration
// is restructured (gather → shared-source SoA substeps → scatter, with the
// exact scalar expression sequence per lane), while every discrete action
// — supply events, MCU advance, policies, governor, probes, termination —
// replays the scalar loop's order per lane. These tests hold that contract
// across every source family and checkpoint-policy family, with probes and
// the DFS governor on, and through the divergence machinery: lanes that
// macro-step analytic spans at different times, and lanes that finish at
// different times (compaction). Identity is asserted on the canonical
// result serialization, which covers the full SimResult — energy ledger,
// metrics, NVM counters, transitions, probe waveforms — bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "../bench/fig8_scenarios.h"
#include "edc/checkpoint/interrupt_policy.h"
#include "edc/sim/result_io.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/batch.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"
#include "edc/taskmodel/burst_policy.h"
#include "edc/trace/voltage_sources.h"
#include "edc/trace/waveform.h"

namespace edc::sweep {
namespace {

/// Runs `grid` through the scalar runner and the batched runner (both
/// serial, so failures reproduce deterministically) and asserts row-wise
/// bit-identity of the canonical result serialization. When
/// `expect_batched` is set, additionally asserts the batch path actually
/// engaged (provenance 'b') — a silently-scalar "pass" would prove nothing.
void expect_bit_identical(const Grid& grid, int lanes = 4,
                          bool expect_batched = true) {
  RunnerOptions scalar_options;
  scalar_options.threads = 1;
  const auto scalar_rows = Runner(scalar_options).run(grid);

  RunnerOptions batch_options;
  batch_options.threads = 1;
  batch_options.batch = true;
  batch_options.batch_lanes = lanes;
  RunReport report;
  const auto batch_rows = Runner(batch_options).run(grid, &report);

  ASSERT_EQ(batch_rows.size(), scalar_rows.size());
  for (std::size_t i = 0; i < scalar_rows.size(); ++i) {
    EXPECT_EQ(sim::serialize_result(batch_rows[i]),
              sim::serialize_result(scalar_rows[i]))
        << "batch result diverges from scalar at point " << i;
    if (expect_batched) {
      EXPECT_EQ(report.provenance[i], kProvenanceBatch)
          << "point " << i << " silently fell back to the scalar path";
    }
    EXPECT_GT(report.micros[i], 0.0) << "point " << i << " reported no cost";
  }
}

TEST(BatchAmortize, OddLaneGroupRemainderIsSumPreserving) {
  // 1000 us over 7 lanes: wall/n = 142.857..., whose serialized copies sum
  // to anything but the measurement; the amortizer pins the column total to
  // the measured wall time exactly.
  const std::vector<double> lanes = amortize_lane_micros(1000.0, 7);
  ASSERT_EQ(lanes.size(), 7u);
  double total = 0.0;
  for (const double m : lanes) total += m;
  EXPECT_DOUBLE_EQ(total, 1000.0);
  // floor split is 142 with remainder 6: six lanes carry one extra us, and
  // no lane strays more than 1 us from the even split.
  EXPECT_EQ(std::count(lanes.begin(), lanes.end(), 143.0), 6);
  EXPECT_EQ(std::count(lanes.begin(), lanes.end(), 142.0), 1);
  for (const double m : lanes) EXPECT_NEAR(m, 1000.0 / 7.0, 1.0);
  // Fractional measurements round to the nearest whole us before splitting.
  const std::vector<double> frac = amortize_lane_micros(10.6, 3);
  ASSERT_EQ(frac.size(), 3u);
  EXPECT_DOUBLE_EQ(frac[0] + frac[1] + frac[2], 11.0);
  // Degenerate shapes stay well-defined.
  EXPECT_TRUE(amortize_lane_micros(5.0, 0).empty());
  EXPECT_DOUBLE_EQ(amortize_lane_micros(-2.0, 2)[0], 0.0);
}

/// Storage + policy axes shared by the per-source-family grids: three
/// capacitances x {no-checkpoint, hibernus} — enough lanes that a group
/// chunk always mixes diverging policies.
Grid family_grid(spec::SystemSpec base) {
  base.workload.kind = "crc";
  base.storage.bleed = 20000.0;
  base.sim.t_end = 0.4;
  Grid grid(std::move(base));
  grid.capacitance_axis({10e-6, 22e-6, 47e-6})
      .axis("policy", {{"none",
                        [](spec::SystemSpec& s) {
                          s.policy = spec::NoCheckpoint{};
                        }},
                       {"hibernus", [](spec::SystemSpec& s) {
                          s.policy = spec::Hibernus{};
                        }}});
  return grid;
}

// ------------------------------------------------ every source family

TEST(BatchDiff, SineFamily) {
  spec::SystemSpec base;
  base.source = spec::SineSource{3.3, 5.0, 0.0, 50.0};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, DcFamily) {
  spec::SystemSpec base;
  base.source = spec::DcSource{3.3, 50.0};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, SquareFamily) {
  spec::SystemSpec base;
  base.source = spec::SquareSource{3.3, 10.0, 0.5, 0.0, 50.0};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, WindFamily) {
  spec::SystemSpec base;
  base.source = spec::WindSource{{}, 3, 1.0};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, KineticFamily) {
  spec::SystemSpec base;
  base.source = spec::KineticSource{{}, 5, 1.0};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, VoltageTraceFamily) {
  // A coarse recorded ramp/plateau trace through the rectifier front-end.
  std::vector<double> samples;
  for (int i = 0; i <= 40; ++i) {
    samples.push_back(i % 10 < 6 ? 3.3 : 0.0);
  }
  spec::SystemSpec base;
  base.source = spec::VoltageTraceSource{trace::Waveform(0.0, 0.01, samples), 50.0,
                                         "trace"};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, ConstantPowerFamily) {
  spec::SystemSpec base;
  base.source = spec::ConstantPower{2e-3};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, MarkovPowerFamily) {
  spec::SystemSpec base;
  base.source = spec::MarkovPower{4e-3, 0.05, 0.05, 11, 1.0};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, RfFieldFamily) {
  trace::RfFieldSource::Params params;
  params.burst_length = 0.1;
  params.burst_period = 0.25;
  spec::SystemSpec base;
  base.source = spec::RfFieldPower{params, 2, 1.0};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, IndoorPvFamily) {
  spec::SystemSpec base;
  base.source = spec::IndoorPvPower{{}, 4, 1};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, SolarFamily) {
  spec::SystemSpec base;
  base.source = spec::SolarPower{{}, 6, 1};
  expect_bit_identical(family_grid(std::move(base)));
}

TEST(BatchDiff, PowerTraceFamily) {
  std::vector<double> samples;
  for (int i = 0; i <= 40; ++i) {
    samples.push_back(i % 8 < 5 ? 3e-3 : 0.0);
  }
  spec::SystemSpec base;
  base.source = spec::PowerTraceSource{trace::Waveform(0.0, 0.01, samples), "ptrace"};
  expect_bit_identical(family_grid(std::move(base)));
}

// ------------------------------------------------ every policy family

TEST(BatchDiff, AllPolicyFamilies) {
  spec::SystemSpec base;
  base.source = spec::SineSource{3.3, 5.0, 0.0, 50.0};
  base.storage.bleed = 20000.0;
  base.workload.kind = "crc";
  base.sim.t_end = 0.4;
  Grid grid(std::move(base));
  grid.capacitance_axis({10e-6, 47e-6})
      .axis("policy",
            {{"none", [](spec::SystemSpec& s) { s.policy = spec::NoCheckpoint{}; }},
             {"hibernus", [](spec::SystemSpec& s) { s.policy = spec::Hibernus{}; }},
             {"hibernus++",
              [](spec::SystemSpec& s) { s.policy = spec::HibernusPlusPlus{}; }},
             {"quickrecall",
              [](spec::SystemSpec& s) { s.policy = spec::QuickRecall{}; }},
             {"nvp", [](spec::SystemSpec& s) { s.policy = spec::Nvp{}; }},
             {"mementos", [](spec::SystemSpec& s) { s.policy = spec::Mementos{}; }},
             {"burst", [](spec::SystemSpec& s) { s.policy = spec::BurstTask{}; }}});
  expect_bit_identical(grid, 5);
}

// ------------------------------------- probed + governed toggles

TEST(BatchDiff, ProbedAndGoverned) {
  spec::SystemSpec base;
  base.source = spec::SquareSource{3.3, 10.0, 0.5, 0.0, 50.0};
  base.storage.bleed = 20000.0;
  base.workload.kind = "crc";
  base.policy = spec::Hibernus{};
  base.sim.t_end = 0.4;
  Grid grid(std::move(base));
  grid.capacitance_axis({10e-6, 22e-6, 47e-6})
      .axis("mode",
            {{"plain", [](spec::SystemSpec&) {}},
             {"probed",
              [](spec::SystemSpec& s) { s.sim.probe_interval = 1e-3; }},
             {"governed", [](spec::SystemSpec& s) { s.governor.emplace(); }},
             {"probed+governed", [](spec::SystemSpec& s) {
                s.sim.probe_interval = 1e-3;
                s.governor.emplace();
              }}});
  expect_bit_identical(grid, 6);
}

// ------------------------------------- divergence / compaction stress

TEST(BatchDiff, StaggeredQuiescentSpansAcrossLanes) {
  // Macro-stepping on: each lane's quiescent engine plans analytic spans
  // whose lengths depend on its capacitance/bleed, so lanes jump ahead of
  // the lockstep front at different instants and rejoin later — the
  // wait/compact machinery must keep every lane on the scalar trajectory.
  spec::SystemSpec base;
  base.source = spec::SquareSource{3.3, 4.0, 0.25, 0.0, 50.0};
  base.storage.bleed = 5000.0;
  base.workload.kind = "crc";
  base.policy = spec::Hibernus{};
  base.sim.t_end = 0.6;
  base.sim.macro_stepping = true;
  Grid grid(std::move(base));
  grid.capacitance_axis({4.7e-6, 10e-6, 22e-6, 33e-6, 47e-6, 100e-6})
      .axis("bleed", {{"5k", [](spec::SystemSpec& s) { s.storage.bleed = 5000.0; }},
                      {"50k", [](spec::SystemSpec& s) { s.storage.bleed = 50000.0; }}});
  expect_bit_identical(grid, 6);
}

TEST(BatchDiff, StaggeredCompletionPeelsLanesOut) {
  // stop_on_completion with per-lane capacitances and workload seeds:
  // lanes finish (or brown out onto different trajectories) at different
  // steps and are peeled from the working set while the rest keep
  // lockstepping.
  spec::SystemSpec base;
  base.source = spec::DcSource{3.3, 50.0};
  base.workload.kind = "sort";
  base.policy = spec::Hibernus{};
  base.sim.t_end = 1.0;
  Grid grid(std::move(base));
  grid.capacitance_axis({10e-6, 47e-6}).workload_seed_axis({1, 2, 3});
  expect_bit_identical(grid, 6);
}

// ------------------------------------- fallbacks, determinism, provenance

TEST(BatchDiff, CustomSourcesFallBackToScalarProvenance) {
  spec::SystemSpec base;
  base.source = spec::CustomVoltageSource{[] {
    return std::make_unique<trace::SineVoltageSource>(3.3, 5.0);
  }};
  base.workload.kind = "crc";
  base.policy = spec::Hibernus{};
  base.sim.t_end = 0.2;
  Grid grid(std::move(base));
  grid.capacitance_axis({10e-6, 22e-6});

  ASSERT_FALSE(batch_group_key(grid.point(0).spec).has_value());

  RunnerOptions batch_options;
  batch_options.threads = 1;
  batch_options.batch = true;
  RunReport report;
  const auto batch_rows = Runner(batch_options).run(grid, &report);

  RunnerOptions scalar_options;
  scalar_options.threads = 1;
  const auto scalar_rows = Runner(scalar_options).run(grid);
  ASSERT_EQ(batch_rows.size(), scalar_rows.size());
  for (std::size_t i = 0; i < scalar_rows.size(); ++i) {
    EXPECT_EQ(sim::serialize_result(batch_rows[i]),
              sim::serialize_result(scalar_rows[i]));
    EXPECT_EQ(report.provenance[i], kProvenanceScalar);
  }
}

TEST(BatchDiff, GroupKeySplitsOnSharedLatticeAxesOnly) {
  spec::SystemSpec a;
  a.source = spec::SineSource{3.3, 5.0, 0.0, 50.0};
  spec::SystemSpec b = a;
  b.storage.capacitance = 47e-6;           // per-lane axis: same group
  b.policy = spec::QuickRecall{};          // per-lane axis: same group
  b.sim.t_end = 99.0;                      // per-lane horizon: same group
  EXPECT_EQ(batch_group_key(a), batch_group_key(b));

  spec::SystemSpec c = a;
  c.sim.dt = 20e-6;                        // lattice axis: different group
  EXPECT_NE(batch_group_key(a), batch_group_key(c));
  spec::SystemSpec d = a;
  std::get<spec::SineSource>(d.source).frequency = 7.0;  // source axis
  EXPECT_NE(batch_group_key(a), batch_group_key(d));
}

TEST(BatchDiff, ParallelBatchMatchesSerialBatch) {
  spec::SystemSpec base;
  base.source = spec::SineSource{3.3, 5.0, 0.0, 50.0};
  base.workload.kind = "crc";
  base.policy = spec::Hibernus{};
  base.sim.t_end = 0.3;
  Grid grid(std::move(base));
  grid.capacitance_axis({4.7e-6, 10e-6, 22e-6, 33e-6, 47e-6, 100e-6});

  RunnerOptions serial;
  serial.threads = 1;
  serial.batch = true;
  serial.batch_lanes = 3;
  RunnerOptions parallel = serial;
  parallel.threads = 3;
  const auto serial_rows = Runner(serial).run(grid);
  const auto parallel_rows = Runner(parallel).run(grid);
  ASSERT_EQ(parallel_rows.size(), serial_rows.size());
  for (std::size_t i = 0; i < serial_rows.size(); ++i) {
    EXPECT_EQ(sim::serialize_result(parallel_rows[i]),
              sim::serialize_result(serial_rows[i]));
  }
}

TEST(BatchDiff, CacheReplaysBatchProvenanceOnWarmHits) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "edc-batchdiff-cache";
  std::filesystem::remove_all(dir);
  Cache cache(dir);

  spec::SystemSpec base;
  base.source = spec::SineSource{3.3, 5.0, 0.0, 50.0};
  base.workload.kind = "crc";
  base.policy = spec::Hibernus{};
  base.sim.t_end = 0.3;
  Grid grid(std::move(base));
  grid.capacitance_axis({10e-6, 22e-6, 47e-6});

  RunnerOptions batch_options;
  batch_options.threads = 1;
  batch_options.batch = true;
  batch_options.cache = &cache;
  RunReport cold_report;
  const auto cold = Runner(batch_options).run(grid, &cold_report);
  EXPECT_EQ(cache.stats().stores, grid.size());

  // A warm *scalar* run must replay both the rows and the batch provenance
  // + amortized costs recorded by the batched run — never relabel them.
  RunnerOptions scalar_options;
  scalar_options.threads = 1;
  scalar_options.cache = &cache;
  RunReport warm_report;
  const auto warm = Runner(scalar_options).run(grid, &warm_report);
  ASSERT_EQ(warm.size(), cold.size());
  EXPECT_EQ(cold_report.warm_count(), 0u);
  EXPECT_EQ(warm_report.warm_count(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(sim::serialize_result(warm[i]), sim::serialize_result(cold[i]));
    EXPECT_EQ(cold_report.provenance[i], kProvenanceBatch);
    EXPECT_EQ(warm_report.provenance[i], kProvenanceBatch);
    EXPECT_EQ(warm_report.micros[i], cold_report.micros[i]);
  }
  std::filesystem::remove_all(dir);
}

/// Runs `grid` serially from an empty cache with batching off and on, and
/// checks that the cache accounting does not depend on the strategy.
/// Returns the (equal) batched stats.
CacheStats expect_equal_cache_accounting(const Grid& grid, const std::string& name) {
  CacheStats stats[2];
  for (int batch = 0; batch < 2; ++batch) {
    const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                      ("edc-batchdiff-accounting-" + name +
                                       std::to_string(batch));
    std::filesystem::remove_all(dir);
    Cache cache(dir);
    RunnerOptions options;
    options.threads = 1;
    options.cache = &cache;
    options.batch = batch == 1;
    (void)Runner(options).run(grid);
    stats[batch] = cache.stats();
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(stats[1].hits, stats[0].hits);
  EXPECT_EQ(stats[1].misses, stats[0].misses);
  EXPECT_EQ(stats[1].stores, stats[0].stores);
  EXPECT_EQ(stats[1].non_cacheable, stats[0].non_cacheable);
  return stats[1];
}

TEST(BatchDiff, CacheAccountingCountsNonCacheablePointsLikeScalar) {
  // A workload factory makes every point non-cacheable, yet the points
  // still share a lockstep group.
  const Grid grid = fig8::batch_survey_grid();
  EXPECT_EQ(expect_equal_cache_accounting(grid, "noncacheable").non_cacheable,
            grid.size());
}

TEST(BatchDiff, CacheAccountingLoadsSingletonGroupsOnce) {
  // Two different sources: two singleton groups, both simulated scalar.
  spec::SystemSpec base;
  base.workload.kind = "crc";
  base.policy = spec::Hibernus{};
  base.sim.t_end = 0.2;
  Grid grid(std::move(base));
  grid.axis("source", {{"sine", [](spec::SystemSpec& s) {
                          s.source = spec::SineSource{3.3, 5.0, 0.0, 50.0};
                        }},
                       {"dc", [](spec::SystemSpec& s) { s.source = spec::DcSource{3.0, 50.0}; }}});
  const CacheStats stats = expect_equal_cache_accounting(grid, "singletons");
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stores, 2u);
}

}  // namespace
}  // namespace edc::sweep
