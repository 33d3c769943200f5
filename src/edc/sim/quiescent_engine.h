// The unified quiescent-state engine: analytic span planning for every
// regime in which the simulated system is provably idle.
//
// Energy-driven systems are defined by their quiescent time: Hibernus-class
// devices (paper §III, Fig 7/8) spend the bulk of every harvesting gap
// *sleeping* with live comparators, browning out through a bled decay, or
// sitting fully discharged waiting for the source. The fine-stepped loop
// pays a fixed dt through all of it although nothing discrete can happen.
// This engine plans all of them with one closed form and one span planner:
//
//   * a QuiescentState: who draws constant current (off-leakage while the
//     MCU is off, i_sleep / i_deep_wait while hibernating) and which
//     discrete watchers are armed (the power-on release below v_on; the
//     supply comparators + the v_min brown-out while powered);
//   * a certificate — the driver's proof of its current over a window —
//     of one of three kinds, tried in this order: *decay* (no current at
//     all: SupplyDriver::quiescent_until, probed at the trajectory floor),
//     *exact* (a constant rectified Thevenin source:
//     SupplyDriver::plan_charge_span) and *chord* (an affine source chord
//     with an interval envelope: SupplyDriver::plan_ramp_span, contracted
//     until the envelope fits macro_v_tol);
//   * the node's closed-form trajectory under that certificate
//     (circuit::AffineSolution), the watchers' horizon on it
//     (Mcu::plan_crossing — one crossing rule for every watcher), a
//     float-guard back-off, and the exact continuum energy booking. The
//     caller folds its own deadlines (t_end, governor period) into
//     max_steps.
//
// The engine jumps whole dt-lattice spans to that horizon. Spans end
// strictly *before* the first crossing step, so the resumed fine stepping
// delivers the crossing transition and every comparator event,
// interpolated crossing time, policy callback and the energy ledger stay in
// lock-step with the fine path. A span's energy split is exact in the
// continuum, so the ledger residual is zero by construction.
//
// Two accuracy regimes coexist (SimConfig):
//   * quiescent_fast_path (default on): only the dead-node case (MCU off,
//     V = 0, source quiet) — *bit-exact*, single-step spans.
//   * macro_stepping (opt-in): the analytic spans — agree with the fine
//     path within its own discretisation error (the contract
//     differential-tested in tests/macro_step_test.cpp).
#pragma once

#include <cstdint>
#include <optional>

#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/common/units.h"
#include "edc/mcu/mcu.h"

namespace edc::sim {

struct SimConfig;

/// One planned quiescent span: `steps` whole dt steps the loop may jump in
/// one go, with the end state and the exact energy booking. The simulator
/// books every span the same way — time/energy via
/// Mcu::note_quiescent_span, ledger shares into the run totals, probe
/// samples replayed from `trajectory` — and a bit-exact dead-node skip is
/// simply the degenerate span whose bookings and trajectory are
/// identically zero.
struct QuiescentSpan {
  std::uint64_t steps = 0;       ///< always >= 1 when planned
  Volts v_end = 0.0;             ///< node voltage at the end of the span
  Joules harvested = 0.0;        ///< driver-delivered share (0 for decays)
  Joules consumed = 0.0;         ///< constant-draw share (MCU-drawn)
  Joules dissipated = 0.0;       ///< bleed share (+ snapped sub-tolerance charge)
  Amps draw = 0.0;               ///< the state's constant current (probe replay)
  circuit::AffineSolution trajectory;  ///< analytic node trajectory (probe replay)
};

class QuiescentEngine {
 public:
  /// All references must outlive the engine (they are the simulator's own).
  QuiescentEngine(const SimConfig& config, const circuit::SupplyNode& node,
                  const circuit::SupplyDriver& driver, const mcu::Mcu& mcu);

  /// True when some quiescent planning is configured at all; when false the
  /// simulator loop skips the per-step plan() call entirely.
  [[nodiscard]] bool enabled() const noexcept;

  /// Plans the longest skippable span starting at step time `t`, up to
  /// `max_steps` steps (the caller folds its t_end / governor deadlines in
  /// there). Returns nullopt when the current MCU state is not quiescent,
  /// the policy does not certify its wake conditions, or not even one whole
  /// step is provably quiet — the caller then takes one fine step.
  [[nodiscard]] std::optional<QuiescentSpan> plan(Seconds t,
                                                  std::uint64_t max_steps) const;

 private:
  /// The certificate kinds, in the order plan() tries them.
  enum class SpanKind : std::uint8_t { decay, exact, chord };

  /// Largest provably-quiet step count <= n_cap for a span following
  /// `trajectory`: probes the driver window (quiescent_until, monotone in
  /// the floor) at the candidate floor and retries geometrically shallower
  /// candidates when the deepest band is already violated — so a slowly
  /// decaying node next to a driver that is only briefly quiet still gets
  /// its short spans instead of a blanket rejection.
  [[nodiscard]] std::uint64_t quiet_steps_on_decay(
      const circuit::AffineSolution& trajectory, Seconds t, Seconds dt,
      std::uint64_t n_cap) const;

  /// Bit-exact dead-node skip (MCU off, V exactly 0, v_on above ground):
  /// single steps gated on the cached driver quiet window, falling back to
  /// per-substep probing — decision identical to the historical fast path.
  [[nodiscard]] std::optional<QuiescentSpan> plan_dead(Seconds t,
                                                       std::uint64_t max_steps) const;

  /// The span planner: certificate of `kind` -> closed-form solution ->
  /// watcher horizon -> float-guard back-off -> ledger booking. Only the
  /// certificate differs by kind, and each kind keeps a one-call rejection
  /// (quiescent_until at v0, one plan_charge_span, or one invalid
  /// plan_ramp_span) for the common case that it claims nothing.
  [[nodiscard]] std::optional<QuiescentSpan> plan_span(
      SpanKind kind, Seconds t, std::uint64_t max_steps) const;

  const SimConfig* config_;
  const circuit::SupplyNode* node_;
  const circuit::SupplyDriver* driver_;
  const mcu::Mcu* mcu_;
  /// Cached driver quiet horizon for plan_dead: valid for steps fully
  /// inside [quiet_from_, quiet_until_). Starts empty.
  mutable Seconds quiet_from_ = 0.0;
  mutable Seconds quiet_until_ = 0.0;
};

}  // namespace edc::sim
