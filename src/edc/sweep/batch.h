// Lockstep batching of sweep grids (the sweep-side half of the batched SoA
// kernel; the stepping itself lives in sim/batch_kernel.h).
//
// Grid points whose *shared-lattice* axes agree — source, front-end, dt,
// node substeps — can advance in lockstep with one source evaluation per
// substep instant broadcast across all of them. batch_group_key() canonises
// exactly those axes into a string key (via spec::serialize on a stripped
// spec, so a recorded trace enters by its sample count and SHA-256 and the
// key stays ~1 KB), so grouping is a map partition; everything else —
// storage, policy, workload, horizon, probes, governor, macro flags —
// varies freely within a group. Points whose source cannot be shared
// (custom factories, unset sources) get no key and take the scalar path
// unchanged.
//
// With RunnerOptions::batch the Runner groups a run's cache-cold points by
// this key, chunks each group into <= batch_lanes lanes and executes the
// chunks through sim::BatchKernel; singleton groups and ungroupable points
// take the scalar path. Per-point results are bit-identical to the scalar
// runner (tests/batch_diff_test.cpp); what changes is the wall time and the
// *provenance* of the recorded cost: a batched point's micros is the
// chunk's wall time amortized over its lanes, its marginal cost under a
// batched re-run, and must never be silently mixed with per-point scalar
// wall times — hence the provenance codes below, carried in RunReport
// (sweep/runner.h) and through the cache (sweep/cache.h).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "edc/spec/system_spec.h"

namespace edc::sweep {

/// Execution-path provenance of a sweep row's result + recorded cost.
inline constexpr char kProvenanceScalar = 's';  ///< scalar Simulator, per-point wall time
inline constexpr char kProvenanceBatch = 'b';   ///< SoA kernel, amortized lane cost

/// The lockstep grouping key: the key form (spec::serialize) of exactly the
/// axes every lane of a sim::BatchKernel must share (source + front-end
/// + dt + node_substeps, embedded in an otherwise default spec). Returns
/// nullopt when the point cannot join a group: custom source factories
/// (not serializable, and each instantiation may differ), or no source at
/// all. Two points with equal keys instantiate structurally identical,
/// batchable drivers — deterministic sources make equal specs sample
/// identically — which is what SupplyNode::step_lanes' broadcast relies on.
[[nodiscard]] std::optional<std::string> batch_group_key(
    const spec::SystemSpec& spec);

/// Splits a lane group's measured wall time into per-lane amortized costs
/// whose *sum reproduces the measurement* at microsecond resolution: each
/// lane gets floor(total/n) whole microseconds and the first total%n lanes
/// carry one extra. Plain wall/n leaks up to (lanes-1) us of rounding per
/// group once the costs are serialized, so summed per-point costs would
/// drift away from the chunks' measured wall time; remainder distribution
/// keeps the totals exact while every lane still differs by at most 1 us
/// from the even split. Returns an empty vector when `lanes` is 0;
/// negative measurements clamp to zero.
[[nodiscard]] std::vector<double> amortize_lane_micros(double wall_micros,
                                                       std::size_t lanes);

}  // namespace edc::sweep
