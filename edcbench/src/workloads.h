// The three benchmark workloads: what each builds in set-up, and the job
// it times.
//
//  * macro_scenarios  — six scenario families (Fig 8 wind survey, governed
//    Fig 8, Fig 7 gapped recorded trace, Fig 7 DC charge ramp, 1%-duty
//    brown-out tail, RF idle field) with macro stepping on, no cache.
//  * fine_batch_sweep — four grids (Fig 7 sine x three policies, Fig 8
//    seeded gust, recorded gust trace, Eq 5 square grid) fine-stepped
//    through RunnerOptions::batch with 16 lanes, no cache.
//  * cached_queries   — four sweep::Search design queries (minimum
//    capacitance on the recorded gust trace, the design_query wind demo,
//    the Eq 5 crossover lattice, the shared-RF AdaptiveBuffer fleet) with
//    macro stepping on and a cache: a cold leg from an empty cache and a
//    warm leg answered from it.
//
// Every Runner and Search uses one worker thread (see README.md).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "edc/sim/simulator.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"
#include "edc/sweep/search.h"
#include "inputs.h"

namespace edcbench {

class Tracer;

enum class Workload { macro_scenarios, fine_batch_sweep, cached_queries };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// One scenario family or grid: run with one Runner::run call.
struct Family {
  std::string name;
  edc::sweep::Grid grid;
};

/// One design query: a sweep::Search over `axis` (plus an optional
/// variant axis), answered with bracket_on(lattice) when the lattice is
/// set, else with contract(lo, hi, tol).
struct Query {
  std::string name;
  edc::spec::SystemSpec base;
  edc::sweep::SearchAxis axis;
  std::string variant_axis;
  std::vector<edc::sweep::AxisValue> variants;
  edc::sweep::SearchObjective objective;
  int direction = 0;
  std::vector<double> lattice;
  double lo = 0.0;
  double hi = 0.0;
  double tol = 0.0;

  [[nodiscard]] std::size_t variant_count() const {
    return variants.empty() ? 1 : variants.size();
  }
  /// The spec the Search probes at axis value x for variant v (the grid
  /// applies the search axis first, then the variant).
  [[nodiscard]] edc::spec::SystemSpec probe_spec(double x, std::size_t v) const;
};

/// What set-up builds: the families (grid workloads) or the queries
/// (cached_queries), from the generated input files.
struct Setup {
  std::vector<Family> families;
  std::vector<Query> queries;
};

/// Loads the generated traces through spec::load_voltage_trace_csv and
/// builds the workload's grids or queries. With a tracer, the CSV loads
/// are "trace.csv_load" spans.
[[nodiscard]] Setup build_setup(Workload workload, const Seeds& seeds,
                                const InputFiles& files, Tracer* tracer = nullptr);

/// The Runner options every job of `workload` uses (one thread; batch on
/// for fine_batch_sweep), with `cache` attached.
[[nodiscard]] edc::sweep::RunnerOptions runner_options(Workload workload,
                                                       edc::sweep::Cache* cache);

/// The result of one family or query within a job.
struct UnitResult {
  std::string name;
  std::vector<edc::sim::SimResult> rows;  ///< grid order, or probe x variant order
  std::size_t fresh = 0;                  ///< rows simulated on this call
  double call_s = 0.0;                    ///< wall time of the Runner/Search call
  double fresh_s = 0.0;                   ///< summed per-row cost of fresh rows
  std::optional<edc::sweep::SearchOutcome> outcome;
  std::string error;  ///< what the call threw; empty when it returned
};

using JobResult = std::vector<UnitResult>;

/// Runs every family or query once. Grid workloads pass `cache` only for
/// the warm leg; cached_queries always pass one.
[[nodiscard]] JobResult run_job(Workload workload, const Setup& setup,
                                edc::sweep::Cache* cache);

/// Stores every row of a grid job under its point's canonical key, so a
/// later run_job with `cache` replays the job warm.
void fill_cache(const Setup& setup, const JobResult& job, edc::sweep::Cache& cache);

/// The Eq 5 dense frequencies the crossover lattice refines, and the
/// policy pair and frequency setter the dense grid shares with the
/// lattice query (so dense points and probes serialize identically).
[[nodiscard]] std::vector<double> eq5_dense_frequencies();
[[nodiscard]] std::vector<edc::sweep::AxisValue> eq5_policies();
void eq5_set_frequency(edc::spec::SystemSpec& spec, double frequency);
/// QuickRecall-minus-hibernus energy per Mcycle (uJ): positive while
/// hibernus wins, negative once QuickRecall does.
[[nodiscard]] double eq5_gap(const std::vector<edc::sim::SimResult>& rows);

}  // namespace edcbench
