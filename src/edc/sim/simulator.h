// The coupled transient-system simulation loop.
//
// Wires source -> front-end driver -> supply node -> MCU (+ checkpoint
// policy, + optional DFS governor) and advances them on a fixed step:
//
//   1. integrate the node ODE over dt (MCU draw at start-of-step state);
//   2. deliver the voltage transition to the MCU (power-on, comparator
//      events at interpolated instants, brown-out);
//   3. let the MCU execute for dt (program ticks, saves/restores);
//   4. run the governor at its control period;
//   5. record probes / state transitions.
//
// The node energy ledger (harvested/consumed/stored) is exactly conserved
// by construction, which the property tests rely on.
#pragma once

#include <vector>

#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/common/units.h"
#include "edc/mcu/hooks.h"
#include "edc/mcu/mcu.h"
#include "edc/trace/waveform.h"

namespace edc::sim {

struct SimConfig {
  Seconds dt = 10e-6;            ///< main step
  Seconds t_end = 10.0;          ///< simulation horizon
  int node_substeps = 4;         ///< ODE substeps per main step
  bool stop_on_completion = true;
  Seconds probe_interval = 0.0;  ///< 0 = no waveform probes
  /// Skip the full node/MCU machinery while the node is fully discharged
  /// (MCU off, V = 0, source dead). Bit-exact with the slow path — at 0 V
  /// every energy flow is identically zero and the node clamps at ground —
  /// so this is purely a fast path; disable only to benchmark it.
  bool quiescent_fast_path = true;
  /// Opt-in analytic macro-stepping of every quiescent regime (see
  /// sim/quiescent_engine.h): while the MCU is off below its power-on
  /// threshold *or* sleeping/waiting/done under a comparator-driven policy,
  /// follow the node's closed-form trajectory under a driver certificate —
  /// a bled decay while the driver is provably quiet, a rectified RC charge
  /// through a constant source window, or a charge along a certified affine
  /// source chord (sine arcs, wind gust tails, recorded trace cells) — and
  /// jump whole spans of dt steps at once, up to the earliest of the
  /// certificate's end, the first instant an armed comparator / power
  /// watcher could fire, the next governor deadline and t_end. Unlike
  /// quiescent_fast_path this is NOT bit-identical with the fine path —
  /// the analytic trajectory replaces the fine path's Euler substepping —
  /// but it agrees within the fine path's own discretisation error
  /// (differential-tested in tests/macro_step_test.cpp): same event
  /// sequences, crossing times within a few dt, energies within 1%,
  /// bit-identical workload digests. Keep it off for reference/regression
  /// runs; turn it on for sweeps over duty-cycled, sleep-dominated or
  /// brown-out-heavy scenarios.
  bool macro_stepping = false;
  /// Accuracy knob of the macro path: node voltages at or below this are
  /// treated as fully discharged (the residual charge books to the bleed),
  /// which lets exponential tails terminate instead of being chased
  /// forever. Also the scale of the voltage agreement the differential
  /// tests hold the macro path to.
  Volts macro_v_tol = 1e-4;
};

/// One MCU state transition (for event timelines like Fig 7).
struct StateChange {
  Seconds time = 0.0;
  mcu::McuState from = mcu::McuState::off;
  mcu::McuState to = mcu::McuState::off;
  Volts vcc = 0.0;
};

struct SimResult {
  Seconds end_time = 0.0;
  Joules harvested = 0.0;       ///< delivered into the node
  Joules consumed = 0.0;        ///< drawn by the MCU
  Joules dissipated = 0.0;      ///< lost in the node bleed resistance
  Joules stored_initial = 0.0;  ///< node energy at t = 0
  Joules stored_final = 0.0;    ///< node energy at the end
  mcu::McuMetrics mcu;          ///< copy of the MCU metrics at the end
  /// NVM lifetime counters (copied from the MCU's NvmStore at the end), so
  /// result consumers — reports, the sweep cache — don't need the live
  /// system: torn (abandoned mid-write) and committed snapshot writes.
  std::uint64_t nvm_torn_writes = 0;
  std::uint64_t nvm_commits = 0;
  /// Step-mix diagnostics: how the loop covered the horizon. fine_steps
  /// counts fully integrated steps; span_steps counts dt steps covered by
  /// the quiescent engine's analytic spans (dead-node skips, decay spans,
  /// charging ramps), `spans` the spans themselves. fine_steps + span_steps
  /// is the run's total step count, so span_steps / total is the fraction
  /// of simulated time the engine collapsed — the quantity the macro
  /// benches report next to their wall-clock speedups.
  std::uint64_t fine_steps = 0;
  std::uint64_t span_steps = 0;
  std::uint64_t spans = 0;
  std::vector<StateChange> transitions;
  /// "vcc", "freq_mhz", "state", "power_mw" when probed. Samples are
  /// end-of-step values, so the waveforms start at t = dt (the end of the
  /// first step), not at t = 0.
  trace::TraceSet probes;

  /// Energy ledger residual (should be ~0):
  /// harvested - consumed - dissipated - Δstored.
  [[nodiscard]] Joules ledger_residual() const {
    return harvested - consumed - dissipated - (stored_final - stored_initial);
  }
};

class Simulator {
 public:
  /// All references must outlive the Simulator. The policy must already be
  /// attached to the MCU (see checkpoint::PolicyBase::attach).
  Simulator(const SimConfig& config, circuit::SupplyNode& node,
            const circuit::SupplyDriver& driver, mcu::Mcu& mcu);

  /// Optional power-neutral governor (DFS control loop).
  void set_governor(mcu::FrequencyGovernor* governor) { governor_ = governor; }

  /// Runs to t_end (or workload completion) and returns the result bundle.
  SimResult run();

 private:
  template <bool kProbing, bool kGoverned>
  void run_loop(SimResult& result);

  SimConfig config_;
  circuit::SupplyNode* node_;
  const circuit::SupplyDriver* driver_;
  mcu::Mcu* mcu_;
  mcu::FrequencyGovernor* governor_ = nullptr;
};

}  // namespace edc::sim
