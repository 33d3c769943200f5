// Parallel sweep execution with deterministic result ordering.
//
// The Runner fans the independent simulations of a Grid out over a
// std::thread pool. Every grid point instantiates its own spec (fresh
// sources, node, MCU, policy — nothing shared between points), so points
// are embarrassingly parallel; results are written into a pre-sized vector
// at the point's index, so the returned rows are in grid order regardless
// of how the OS scheduled the workers. A parallel run is bit-identical to
// a serial run of the same grid (tested in tests/sweep_test.cpp).
//
//   sweep::Runner runner;                       // hardware_concurrency threads
//   const auto rows = runner.run(grid);         // rows[i] == grid.point(i)
//
// Two options compose with the pool (tests/sweep_cache_test.cpp,
// tests/batch_diff_test.cpp):
//
//  * options.cache points at a sweep::Cache: run() then loads previously
//    simulated points from disk instead of re-simulating them
//    (bit-identical rows), and stores fresh points. Specs that carry opaque
//    factory callbacks are non-cacheable and always simulate.
//  * options.batch steps structurally matching cache-cold points in
//    lockstep through the SoA kernel (see sweep/batch.h).
//
// run() resolves each point's cache hit, forms work units (batch chunks or
// single points) and runs them on the pool.
//
// For per-point data beyond SimResult (policy internals, NVM counters),
// map() passes the still-live system to a caller-supplied extractor (the
// cache is bypassed — the extractor needs the live system):
//
//   auto torn = runner.map<std::uint64_t>(
//       grid, [](const sweep::Point&, core::EnergyDrivenSystem& system,
//                const sim::SimResult&) {
//         return system.mcu().nvm().torn_writes();
//       });
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "edc/core/system.h"
#include "edc/sim/simulator.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/grid.h"

namespace edc::sweep {

class Cache;

/// Per-row origin codes (the probe-count accounting solver-guided searches
/// rely on, see sweep/search.h): was the row computed by a fresh
/// simulation on *this* run, or replayed warm from the cache? Unlike
/// provenance ('s'/'b', which survives cache round trips), origin is a
/// property of the current run — a warm rerun of a cached grid is all
/// kOriginWarm even though every row's provenance still names the path
/// that first produced it.
inline constexpr char kOriginFresh = 'f';  ///< simulated on this run
inline constexpr char kOriginWarm = 'w';   ///< loaded from the cache

/// Per-row execution telemetry for one run() call. All three columns are
/// sized to the returned rows and indexed the same way:
///
///  * micros[i]      — the microseconds row i's simulation took on this
///    run, or — for a cache hit — the cost recorded when the point was
///    first simulated (so a warm rerun still reports what each point
///    costs to simulate).
///  * provenance[i]  — the execution-path code ('s' scalar / 'b' batch,
///    see sweep/batch.h) telling timing consumers how to interpret the
///    matching micros entry: per-point wall time, or a batch chunk's cost
///    amortized over its lanes. Cache hits replay the provenance recorded
///    when the point was first simulated.
///  * origin[i]      — kOriginFresh when the row was simulated on this
///    run, kOriginWarm when it was replayed from the cache: the exact
///    cold-point accounting sweep::Search gates its probe budgets on.
struct RunReport {
  std::vector<double> micros;
  std::vector<char> provenance;
  std::vector<char> origin;

  /// Rows replayed warm from the cache on this run.
  [[nodiscard]] std::size_t warm_count() const noexcept {
    std::size_t n = 0;
    for (const char code : origin) n += (code == kOriginWarm) ? 1 : 0;
    return n;
  }
  /// Rows simulated fresh on this run.
  [[nodiscard]] std::size_t fresh_count() const noexcept {
    return origin.size() - warm_count();
  }
};

struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (at least 1).
  /// The pool never exceeds the number of work units (points or batch
  /// chunks).
  int threads = 0;
  /// Optional on-disk memoiser for run() (see sweep/cache.h).
  /// Not owned; must outlive the Runner. map() ignores it.
  Cache* cache = nullptr;
  /// Batched execution strategy (see sweep/batch.h): group points whose
  /// source/front-end/lattice axes agree and step them in lockstep through
  /// the SoA kernel, up to `batch_lanes` lanes per kernel. Rows are
  /// bit-identical to the scalar path; per-point wall times become
  /// amortized lane costs (provenance 'b'). map() ignores it (extractors
  /// need the scalar per-point lifecycle).
  bool batch = false;
  int batch_lanes = 16;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {}) : options_(options) {}

  /// Simulates every grid point (to the spec's sim.t_end horizon) and
  /// returns the SimResult rows in point order. With options.cache set,
  /// warm points are loaded instead of simulated.
  ///
  /// When `report` is non-null it receives the per-row execution telemetry
  /// — micros, provenance and origin columns sized to the returned rows
  /// (see RunReport above).
  [[nodiscard]] std::vector<sim::SimResult> run(
      const Grid& grid, RunReport* report = nullptr) const;

  /// As run(), but maps each completed simulation through `fn` inside the
  /// worker thread, while the wired system is still alive. `fn` must be
  /// safe to call concurrently from multiple threads and `R` must be
  /// default-constructible. Rows are returned in point order.
  template <typename R>
  [[nodiscard]] std::vector<R> map(
      const Grid& grid,
      const std::function<R(const Point& point, core::EnergyDrivenSystem& system,
                            const sim::SimResult& result)>& fn) const {
    // std::vector<bool> packs elements, so concurrent workers writing
    // adjacent rows would race on shared words; return char/int instead.
    static_assert(!std::is_same_v<R, bool>,
                  "map<bool> would race on std::vector<bool>'s packed storage");
    std::vector<R> rows(grid.size());
    pooled(grid.size(), [&grid, &rows, &fn](std::size_t i) {
      const Point point = grid.point(i);
      auto system = spec::instantiate(point.spec);
      const sim::SimResult result = system.run();
      rows[i] = fn(point, system, result);
    });
    return rows;
  }

  /// The pool size for `point_count` work units (grid points, or batch
  /// chunks under options.batch).
  [[nodiscard]] int thread_count(std::size_t point_count) const noexcept;

 private:
  /// The pool: executes body(k) for k in [0, count) across
  /// thread_count(count) workers; the first worker exception is rethrown on
  /// the calling thread after the pool drains.
  void pooled(std::size_t count, const std::function<void(std::size_t)>& body) const;

  RunnerOptions options_;
};

}  // namespace edc::sweep
