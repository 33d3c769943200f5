// Eq 5 — The hibernus vs QuickRecall crossover.
//
// Unified-FRAM execution (QuickRecall) pays a constant power premium but
// snapshots almost nothing; SRAM execution (hibernus) is cheaper to run but
// pays a full RAM copy (plus restore) per outage. Eq 5 predicts the
// break-even supply interruption frequency:
//
//     f_crossover = (P_FRAM - P_SRAM) / (E_hibernus - E_quickrecall)
//
// The bench sweeps the interruption frequency of a square-wave supply on a
// leaky 10 uF node (so outages stay real across the sweep) with the sweep
// engine (f x policy grid), measures total MCU energy per unit of forward
// progress for both policies, and compares the empirical crossover against
// the analytic prediction.
//
// The grid is pure spec data, so it also serves as the process-sharding
// demo (scripts/shard_merge_smoke.cmake):
//
//   eq5_crossover --shard 0/2 --csv a.csv      # half the grid
//   eq5_crossover --shard 1/2 --csv b.csv      # the other half
//   sweep_merge merged.csv a.csv b.csv         # == unsharded --csv output
//
// --shard runs only the owned points and writes the shard CSV (no table,
// no shape checks); --csv without --shard writes the unsharded CSV next to
// the normal report; --cache memoises either mode; --t-end shortens the
// horizon for smoke tests (shape checks are skipped — they are tuned for
// the full 20 s horizon).
//
// --batch runs the grid through the batched SoA kernel (sweep/batch.h) —
// bit-identical rows, amortized lane-cost timings tagged provenance 'b'.
//
// The solver-guided form of the same question (sweep::Search bisecting a
// refined 49-frequency lattice for the crossover cell) is pinned, with its
// probe budget, in tests/search_test.cpp.
//
// --shard-plan PLAN.csv closes the cost-weighted sharding loop end to end:
// an unsharded run *emits* the per-point cost plan
// ("index,micros,provenance" — measured, or replayed from the cache on a
// warm grid), and a --shard k/N run *consumes* it, replacing index
// striding with the LPT-balanced partition of
// sweep::ShardAssignment::balanced. A plan mixing scalar and batch
// provenance is rejected: amortized lane costs are not comparable with
// per-point wall times. Every shard process computes the identical
// partition from the identical file, and the v2 shard CSVs merge through
// sweep_merge exactly like striding ones:
//
//   eq5_crossover --csv base.csv --cache c --shard-plan plan.csv   # emit
//   eq5_crossover --shard 0/2 --csv a.csv --cache c --shard-plan plan.csv
//   eq5_crossover --shard 1/2 --csv b.csv --cache c --shard-plan plan.csv
//   sweep_merge merged.csv a.csv b.csv     # == base.csv, LPT-balanced run
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common_flags.h"
#include "edc/checkpoint/thresholds.h"
#include "edc/core/system.h"
#include "edc/sim/table.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/report.h"
#include "edc/sweep/runner.h"
#include "edc/workloads/fft.h"

using namespace edc;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

double joules_per_mcycle(const sim::SimResult& result) {
  if (result.mcu.forward_cycles <= 1000.0) {
    return std::numeric_limits<double>::infinity();
  }
  return result.mcu.energy_total() / (result.mcu.forward_cycles / 1e6);
}

/// Writes the "index,micros,provenance" cost plan a later --shard run
/// consumes. The provenance column ('s' scalar / 'b' batch, see
/// sweep/batch.h) records which execution path measured each cost.
bool write_shard_plan(const char* path, const std::vector<double>& micros,
                      const std::vector<char>& provenance) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path);
    return false;
  }
  out << "index,micros,provenance\n";
  for (std::size_t i = 0; i < micros.size(); ++i) {
    out << i << ',' << micros[i] << ',' << provenance[i] << '\n';
  }
  if (!out.good()) {
    std::fprintf(stderr, "write to '%s' failed\n", path);
    return false;
  }
  return true;
}

/// Reads the cost plan back: one positive, finite cost per grid point,
/// every index covered exactly once, one provenance throughout. Loud
/// failure — a stale, truncated or mixed plan must never silently degrade
/// into a partial or skewed partition (the merge would reject mismatched
/// shards anyway, but this fails with the reason). A batch cost is a lane
/// group's wall time amortized over its lanes and a scalar cost is the
/// point's own wall time, so an LPT partition over a mix of the two would
/// skew every shard.
bool read_shard_plan(const char* path, std::size_t grid_size,
                     std::vector<double>& micros) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open shard plan '%s' (run unsharded with "
                 "--shard-plan first to emit it)\n", path);
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != "index,micros,provenance") {
    std::fprintf(stderr, "'%s' is not a shard plan (bad header)\n", path);
    return false;
  }
  micros.assign(grid_size, 0.0);
  std::vector<bool> covered(grid_size, false);
  bool saw_scalar = false;
  bool saw_batch = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // from_chars takes no sign or space, so "-1" is rejected, not wrapped.
    std::size_t index = 0;
    const auto [after_index, ec] =
        std::from_chars(line.data(), line.data() + line.size(), index);
    if (ec != std::errc{} || *after_index != ',' || index >= grid_size) {
      std::fprintf(stderr, "bad shard-plan row in '%s': %s\n", path, line.c_str());
      return false;
    }
    char* end = nullptr;
    const double cost = std::strtod(after_index + 1, &end);
    if (!(cost > 0.0) || !std::isfinite(cost) || *end != ',') {
      std::fprintf(stderr, "bad shard-plan cost in '%s': %s\n", path, line.c_str());
      return false;
    }
    if ((end[1] != 's' && end[1] != 'b') || end[2] != '\0') {
      std::fprintf(stderr, "bad shard-plan provenance in '%s': %s\n", path,
                   line.c_str());
      return false;
    }
    (end[1] == 'b' ? saw_batch : saw_scalar) = true;
    if (covered[index]) {
      std::fprintf(stderr, "duplicate shard-plan index %zu in '%s'\n", index, path);
      return false;
    }
    covered[index] = true;
    micros[index] = cost;
  }
  for (std::size_t i = 0; i < grid_size; ++i) {
    if (!covered[i]) {
      std::fprintf(stderr, "shard plan '%s' misses point %zu (grid has %zu "
                   "points — stale plan?)\n", path, i, grid_size);
      return false;
    }
  }
  if (saw_scalar && saw_batch) {
    std::fprintf(stderr,
                 "shard plan '%s' mixes scalar ('s') and batch ('b') "
                 "provenance: batch costs are amortized over a lane group and "
                 "are not comparable with per-point scalar wall times, so an "
                 "LPT partition over them would be skewed. Re-emit the plan "
                 "from a single mode (with or without --batch, cold cache).\n",
                 path);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<sweep::Shard> shard;
  std::optional<sweep::Cache> cache;
  const char* csv_path = nullptr;
  const char* shard_plan_path = nullptr;
  double t_end = 20.0;
  bool t_end_overridden = false;
  bool macro = false;
  bool batch = false;
  bench::FlagParser flags;
  flags.on_value("--shard", "k/N",
                 [&](const char* v) {
                   try {
                     shard = sweep::Shard::parse(v);
                   } catch (const std::invalid_argument& error) {
                     std::fprintf(stderr, "--shard: %s\n", error.what());
                     return false;
                   }
                   return true;
                 })
      .on_value("--csv", "FILE", [&](const char* v) { csv_path = v; return true; })
      .on_value("--shard-plan", "FILE",
                [&](const char* v) { shard_plan_path = v; return true; })
      .on_value("--cache", "DIR", [&](const char* v) { cache.emplace(v); return true; })
      // Event-horizon macro-stepping across the whole grid: the low-f
      // points are outage-dominated (long brown-out tails), which is
      // exactly the regime the macro stepper collapses to O(1) per span.
      .on("--macro", [&] { macro = true; })
      // Batched SoA execution (sweep/batch.h): the two policies at each
      // interrupt frequency share a source, so they step as one two-lane
      // group. Rows are bit-identical to the scalar path; per-point
      // costs become amortized lane costs (provenance 'b' in the shard
      // plan).
      .on("--batch", [&] { batch = true; })
      .on_value("--t-end", "SECONDS", [&](const char* v) {
        char* end = nullptr;
        t_end = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(t_end > 0.0)) {
          std::fprintf(stderr, "--t-end needs a positive number, got '%s'\n", v);
          return false;
        }
        t_end_overridden = true;
        return true;
      });
  if (!flags.parse(argc, argv)) return 2;
  if (shard.has_value() && csv_path == nullptr) {
    std::fprintf(stderr, "--shard requires --csv FILE (the shard's output)\n");
    return 2;
  }

  mcu::McuPowerModel power;
  workloads::FftProgram probe_program(10, 5);
  const std::size_t image = probe_program.ram_footprint();
  const Hertz predicted =
      checkpoint::crossover_frequency_for_image(power, image, 8e6, 3.0);

  // Margin sized for the strong board bleed that drains the node in
  // parallel with the save (see Eq 4 discussion in DESIGN.md).
  checkpoint::InterruptPolicy::Config config;
  config.margin = 3.0;
  config.restore_headroom = 0.15;

  spec::SystemSpec base;
  base.storage.capacitance = 10e-6;
  base.storage.bleed = 1000.0;
  base.workload.kind = "fft";  // FftProgram(10, seed) — pure data, cacheable
  base.workload.seed = 5;
  base.sim.t_end = t_end;
  base.sim.macro_stepping = macro;

  const std::vector<Hertz> sweep = {5, 10, 20, 40, 80, 160, 320};
  sweep::Grid grid(base);
  grid.numeric_axis(
          "f_interrupt (Hz)", sweep,
          [](spec::SystemSpec& s, double f) {
            s.source = spec::SquareSource{3.3, f, 0.5, 0.0, 50.0};
          },
          [](double f) { return sim::Table::num(f, 0); })
      .axis("policy",
            {{"hibernus",
              [config](spec::SystemSpec& s) { s.policy = spec::Hibernus{config}; }},
             {"quickrecall",
              [config](spec::SystemSpec& s) { s.policy = spec::QuickRecall{config}; }}});

  sweep::RunnerOptions options;
  if (cache.has_value()) options.cache = &*cache;
  options.batch = batch;
  const sweep::Runner runner(options);

  const auto report_cache = [&] {
    if (!cache.has_value()) return;
    const sweep::CacheStats stats = cache->stats();
    std::fprintf(stderr,
                 "cache: %llu hits, %llu misses, %llu stored, %llu non-cacheable\n",
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(stats.stores),
                 static_cast<unsigned long long>(stats.non_cacheable));
  };

  if (shard.has_value()) {
    // Shard mode: simulate the owned slice, emit the mergeable CSV, done.
    // With a --shard-plan, ownership comes from the LPT-balanced partition
    // of the plan's measured per-point costs instead of index striding —
    // every shard process derives the identical partition from the
    // identical file, so the slices still cover the grid exactly once.
    std::vector<sim::SimResult> rows;
    std::optional<sweep::ShardAssignment> assignment;
    std::size_t owned_count = 0;
    if (shard_plan_path != nullptr) {
      std::vector<double> plan;
      if (!read_shard_plan(shard_plan_path, grid.size(), plan)) return 1;
      assignment = sweep::ShardAssignment::balanced(plan, shard->count);
      rows = runner.run_assignment(grid, *assignment, shard->index);
      owned_count = assignment->owned[shard->index].size();
      std::fprintf(stderr,
                   "shard plan '%s': LPT makespan %.0f us vs striding %.0f us\n",
                   shard_plan_path, assignment->makespan(plan),
                   sweep::ShardAssignment::striding(grid.size(), shard->count)
                       .makespan(plan));
    } else {
      rows = runner.run_shard(grid, *shard);
      owned_count = shard->owned_count(grid.size());
    }
    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", csv_path);
      return 1;
    }
    if (assignment.has_value()) {
      sweep::write_assignment_shard_csv(out, grid, *assignment, shard->index, rows);
    } else {
      sweep::write_shard_csv(out, grid, *shard, rows);
    }
    if (!out.good()) {
      std::fprintf(stderr, "write to '%s' failed\n", csv_path);
      return 1;
    }
    report_cache();
    std::printf("shard %s%s: simulated %zu of %zu points -> %s\n",
                shard->to_string().c_str(),
                assignment.has_value() ? " (LPT plan)" : "", owned_count,
                grid.size(), csv_path);
    return 0;
  }

  std::printf("=== Eq 5: hibernus vs QuickRecall crossover frequency ===\n\n");

  const Watts p_fram = power.active_current(8e6, mcu::MemoryMode::unified_fram) * 3.0;
  const Watts p_sram = power.active_current(8e6, mcu::MemoryMode::sram_execution) * 3.0;
  std::printf("P_FRAM = %.2f mW, P_SRAM = %.2f mW (at 8 MHz, 3 V)\n", p_fram * 1e3,
              p_sram * 1e3);
  std::printf("RAM image: %zu B (+%zu B registers)\n", image,
              power.register_file_bytes);
  std::printf("Eq 5 predicted crossover: %.0f Hz "
              "(50%% supply duty halves the usable on-time => expect ~%.0f Hz)\n\n",
              predicted, predicted / 2);

  sweep::RunReport run_report;
  const auto results = runner.run(grid, &run_report);
  report_cache();

  if (shard_plan_path != nullptr) {
    // Emit the cost plan for LPT-balanced --shard re-runs (cache hits
    // replay each point's original cost and provenance, so a warm grid
    // re-emits the same plan without simulating).
    if (!write_shard_plan(shard_plan_path, run_report.micros,
                          run_report.provenance)) {
      return 1;
    }
    std::fprintf(stderr, "shard plan -> %s (%zu points)\n", shard_plan_path,
                 run_report.micros.size());
  }

  if (csv_path != nullptr) {
    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", csv_path);
      return 1;
    }
    sweep::write_csv(out, grid, results);
    if (!out.good()) {
      std::fprintf(stderr, "write to '%s' failed\n", csv_path);
      return 1;
    }
  }

  // Row-major order: frequency outer, policy inner.
  const auto at = [&](std::size_t f_index, std::size_t p_index) -> const sim::SimResult& {
    return results[f_index * 2 + p_index];
  };

  sim::Table table({"f_interrupt (Hz)", "hibernus (uJ/Mcycle)",
                    "quickrecall (uJ/Mcycle)", "winner", "hib saves", "qr saves"});
  Hertz empirical_crossover = 0.0;
  bool previous_hibernus_wins = true;
  bool first = true;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double hibernus = joules_per_mcycle(at(i, 0));
    const double quickrecall = joules_per_mcycle(at(i, 1));
    const bool hibernus_wins = hibernus <= quickrecall;
    if (!first && previous_hibernus_wins && !hibernus_wins &&
        empirical_crossover == 0.0) {
      empirical_crossover = sweep[i];
    }
    previous_hibernus_wins = hibernus_wins;
    first = false;
    auto fmt = [](double v) {
      return std::isinf(v) ? std::string("no progress") : sim::Table::num(v * 1e6, 2);
    };
    table.add_row({sim::Table::num(sweep[i], 0), fmt(hibernus), fmt(quickrecall),
                   hibernus_wins ? "hibernus" : "quickrecall",
                   std::to_string(at(i, 0).mcu.saves_completed),
                   std::to_string(at(i, 1).mcu.saves_completed)});
  }
  table.print(std::cout);

  std::printf("\nEmpirical crossover: first quickrecall win at %.0f Hz\n",
              empirical_crossover);

  if (t_end_overridden) {
    std::printf("\n(--t-end overridden: shape checks skipped — they are tuned "
                "for the 20 s horizon)\n");
    return 0;
  }

  std::printf("\nShape checks vs the paper:\n");
  check(predicted > 0.0, "Eq 5 yields a positive crossover for FRAM > SRAM power");
  check(empirical_crossover > 0.0, "a crossover exists within the sweep");
  check(empirical_crossover >= predicted / 8 && empirical_crossover <= predicted * 8,
        "empirical crossover within an order of magnitude of Eq 5");
  check(joules_per_mcycle(at(0, 0)) < joules_per_mcycle(at(0, 1)),
        "at low interruption rates hibernus is more efficient (SRAM execution)");

  std::printf("\n%s\n", g_failures == 0 ? "ALL SHAPE CHECKS PASSED"
                                        : "SOME SHAPE CHECKS FAILED");
  return g_failures == 0 ? 0 : 1;
}
