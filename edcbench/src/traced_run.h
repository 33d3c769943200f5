// The traced job: the same points as the timed job, sent through the
// public calls the Runner makes — spec::serialize, Cache::load,
// spec::instantiate, EnergyDrivenSystem::run or BatchKernel::run,
// serialize_result, Cache::store — with a span around each call and the
// simulator's calls into its layers counted by forwarding decorators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tracing.h"
#include "workloads.h"

namespace edcbench {

/// Sizes the traced calls handled, for the per-layer byte counts.
struct TracedCounts {
  std::uint64_t key_bytes = 0;     ///< canonical spec text serialized
  std::uint64_t result_bytes = 0;  ///< serialize_result output
  std::vector<std::size_t> chunk_lanes;  ///< lanes of every BatchKernel chunk
};

/// Rows of the traced legs, in the timed job's order, for the byte
/// comparison with the untraced rows.
struct TracedJob {
  JobResult cold;
  JobResult warm;
  TracedCounts counts;
};

/// Runs the cold leg (run id 1), the cache fill of grid workloads (run
/// id 2) and the warm leg (run id 3) under `tracer`. Query probes replay
/// the probe sequence `untraced_cold` recorded, against a fresh cache in
/// `cache_dir`.
[[nodiscard]] TracedJob run_traced_job(Workload workload, const Setup& setup,
                                       const JobResult& untraced_cold,
                                       const std::string& cache_dir, Tracer& tracer);

/// Node-step costs replayed on the driver and dt lattice of `spec`:
/// SupplyNode::step and 16-lane SupplyNode::step_lanes, in nanoseconds
/// per call (median of three passes).
struct StepCost {
  double step_ns = 0.0;
  double step_lanes_ns = 0.0;
};
[[nodiscard]] StepCost replay_node_steps(const edc::spec::SystemSpec& spec);

}  // namespace edcbench
