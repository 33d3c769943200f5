// One simulation's run state and the step operations every driving loop
// performs on it.
//
// Simulator::run drives one Lane with the scalar node step;
// sim::BatchKernel drives many in lockstep with the SoA node step.
// Everything a fine step means for the run beyond the node ODE — ledger
// sums, MCU supply events and execution, the governor schedule, transition
// records, probes, the completion stop — and the quiescent spans that
// replace whole runs of fine steps happen here, in one order. That is the
// whole batch-vs-scalar bit-identity argument.
#pragma once

#include <cstdint>
#include <vector>

#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/common/units.h"
#include "edc/mcu/hooks.h"
#include "edc/mcu/mcu.h"
#include "edc/sim/quiescent_engine.h"
#include "edc/sim/simulator.h"

namespace edc::sim {

/// One run's state — the ledger sums and the exact dt lattice
/// (t == dt * step), the last voltage and MCU state, probe buffers and
/// schedule, the governor deadline, the step-mix counters and the
/// quiescent engine — and the three operations on it. A driving loop only
/// decides how the node crosses one fine step:
///
///   while (lane.live()) {
///     if (lane.book_span()) continue;
///     lane.finish_fine_step(node.step(lane.time(), dt, driver, mcu, n));
///   }
///   return lane.finalize();
class Lane {
 public:
  /// All references, and `governor` when non-null, must outlive the lane.
  /// The policy must already be attached to the MCU.
  Lane(const SimConfig& config, circuit::SupplyNode& node,
       const circuit::SupplyDriver& driver, mcu::Mcu& mcu,
       mcu::FrequencyGovernor* governor);

  /// True until the lane reaches t_end or stops on workload completion.
  [[nodiscard]] bool live() const noexcept { return !stopped_ && t_ < t_end_; }
  /// The lattice index of the next step and its start time dt * step.
  [[nodiscard]] std::uint64_t step() const noexcept { return step_; }
  [[nodiscard]] Seconds time() const noexcept { return t_; }

  /// Plans a quiescent span from the current step, with t_end and the next
  /// governor deadline folded into its step cap, and books it: probe
  /// samples replayed from the analytic trajectory, MCU time and energy,
  /// ledger shares, the lattice jump. Returns false when the engine is off
  /// or claims no step; the caller then takes a fine step.
  bool book_span();

  /// Books the fine step the caller just took from time() (the node
  /// already holds the end-of-step voltage) and runs the post-step
  /// sequence: supply events, MCU advance, governor, transition record,
  /// probe, lattice step, completion stop.
  void finish_fine_step(const circuit::SupplyNode::StepEnergy& energy);

  /// End-of-run result: ledger totals, probe waveforms, final snapshots.
  /// Call once, after the lane stops.
  [[nodiscard]] SimResult finalize();

 private:
  // The per-step state first: the batch kernel scans every lane's
  // live()/step() each round.
  std::uint64_t step_ = 0;
  Seconds t_ = 0.0;
  Seconds t_end_ = 0.0;
  bool stopped_ = false;
  bool engine_enabled_ = false;
  bool probing_ = false;
  mcu::McuState last_state_ = mcu::McuState::off;
  Volts v_prev_ = 0.0;
  Seconds next_probe_ = 0.0;
  Seconds next_governor_ = 0.0;
  const SimConfig* config_ = nullptr;
  circuit::SupplyNode* node_ = nullptr;
  mcu::Mcu* mcu_ = nullptr;
  mcu::FrequencyGovernor* governor_ = nullptr;
  QuiescentEngine engine_;
  SimResult result_;
  std::vector<double> probe_vcc_, probe_freq_, probe_state_, probe_power_;
};

}  // namespace edc::sim
