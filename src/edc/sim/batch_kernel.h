// Batched SoA fine-step kernel: advance many independent simulations
// ("lanes") in lockstep on a shared dt lattice.
//
// The sweep runner groups grid points whose source/front-end/lattice axes
// agree structurally (sweep/batch.h); each group becomes one BatchKernel.
// Each lane is a sim::Lane, the same stepper Simulator::run drives. Per
// step the kernel gathers the fine-stepping lanes' node state into
// contiguous structure-of-arrays blocks, advances the node ODE for all of
// them with one shared source evaluation per substep instant
// (circuit::SupplyNode::step_lanes — the vectorizable inner loop), then
// hands each lane its step energy through Lane::finish_fine_step.
// Everything discrete stays scalar per lane, so each lane's SimResult is
// bit-identical to Simulator::run() on the same system — the contract
// tests/batch_diff_test.cpp holds across every source and policy family.
//
// Lanes diverge: the quiescent engine jumps one lane over a span while its
// neighbours fine-step, and lanes finish at different times (t_end and
// stop_on_completion are per-lane). The kernel handles both by lockstep
// compaction: each round it advances only the lanes at the *minimum*
// lattice step; span-jumped lanes simply wait (masked out) until the rest
// catch up, and finished lanes drop out of the working set. A lane
// whose planner keeps it permanently ahead costs nothing but its plan()
// calls.
#pragma once

#include <cstdint>
#include <vector>

#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/common/units.h"
#include "edc/mcu/hooks.h"
#include "edc/mcu/mcu.h"
#include "edc/sim/simulator.h"

namespace edc::sim {

/// One lane of a batch: the wired parts of a single system, non-owning (the
/// caller keeps the systems alive — the sweep Runner holds the
/// instantiated core::EnergyDrivenSystem per lane). All lanes of one kernel
/// must share dt, node_substeps, and a structurally identical batchable
/// driver (the grouping contract enforced by sweep::batch_group_key);
/// everything else — capacitance, bleed, policy, workload, t_end, probes,
/// governor, macro flags — may differ per lane.
struct BatchLane {
  SimConfig config;
  circuit::SupplyNode* node = nullptr;
  const circuit::SupplyDriver* driver = nullptr;
  mcu::Mcu* mcu = nullptr;
  mcu::FrequencyGovernor* governor = nullptr;  ///< optional
};

class BatchKernel {
 public:
  /// Validates the lockstep preconditions (>= 1 lane; shared dt/substeps;
  /// batchable driver) and takes a copy of the lane table. The pointed-to
  /// parts must outlive the kernel.
  explicit BatchKernel(std::vector<BatchLane> lanes);

  /// Runs every lane to its own horizon and returns one SimResult per lane,
  /// in lane order. Single-shot: run() may be called once.
  std::vector<SimResult> run();

 private:
  std::vector<BatchLane> lanes_;
};

}  // namespace edc::sim
