// Shared measurement helpers for the --macro and --batch survey gates
// (fig7_hibernus_fft, fig8_hibernus_pn): one definition of the
// gate-critical best-of-N wall-clock loops so the CI gates cannot silently
// diverge in how they time their legs.
#pragma once

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "edc/core/system.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

namespace macro_survey {

/// Best-of-`repeats` wall time (ms) of running `base` with macro stepping
/// toggled; `result` receives the (deterministic) last run's results. The
/// gated ratios divide two of these, so repeats only filter scheduler
/// hiccups out of the measurement — a macro leg in the single-digit
/// milliseconds would otherwise flake its gate on one preemption.
/// Only system.run() is timed: instantiation (source and quiet-index
/// construction) happens before the clock starts, unlike BM_MacroPair in
/// bench/perf_micro.cpp, which times both.
inline double wall_millis(const edc::spec::SystemSpec& base,
                          edc::sim::SimResult& result, bool macro_stepping,
                          int repeats) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    edc::spec::SystemSpec s = base;
    s.sim.macro_stepping = macro_stepping;
    auto system = edc::spec::instantiate(s);
    const auto start = std::chrono::steady_clock::now();
    result = system.run();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

/// Best-of-`repeats` wall time (ms) of running `grid` through the sweep
/// Runner with the batch strategy toggled; `rows` receives the
/// (deterministic) last run's results. Single worker thread in both legs,
/// so a gated scalar/batch ratio measures the SoA kernel alone, not pool
/// parallelism — the same protocol as BM_BatchPair in bench/perf_micro.
inline double sweep_wall_millis(const edc::sweep::Grid& grid,
                                std::vector<edc::sim::SimResult>& rows,
                                bool batch, int repeats) {
  edc::sweep::RunnerOptions options;
  options.threads = 1;
  options.batch = batch;
  const edc::sweep::Runner runner(options);
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    rows = runner.run(grid);
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

/// Fraction of the run's dt steps the quiescent engine covered
/// analytically (the SimResult step-mix diagnostics).
inline double span_coverage(const edc::sim::SimResult& result) {
  const auto total = result.fine_steps + result.span_steps;
  return total == 0 ? 0.0
                    : static_cast<double>(result.span_steps) /
                          static_cast<double>(total);
}

}  // namespace macro_survey
