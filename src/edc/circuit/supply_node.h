// The single supply node of an energy-driven system (Fig 4): total node
// capacitance (decoupling + parasitic + any added storage), driven by a
// SupplyDriver and discharged by a Load.
//
// Integration: semi-implicit Euler with fixed substeps. The node ODE is
//   C dV/dt = I_in(V, t) - I_load(V, t)
// which is stiff only through the source series resistance; the default
// substep keeps R_s*C >> dt_sub for every modelled source.
#pragma once

#include <limits>

#include "edc/circuit/supply_driver.h"
#include "edc/common/units.h"

namespace edc::circuit {

/// Closed-form solution of the linear node ODE behind every quiescent span,
///
///   C dV/dt = a + b*t - G*V,     V(0) = v0,  V clamped at ground,
///
/// which covers all three regimes of Fig 7/8 (see SupplyNode::affine_from):
///   * a bled decay with the MCU off or asleep (a = -I_load, b = 0,
///     G = 1/R_bleed, which is 0 without a bleed path);
///   * a rectified RC charge through a constant Thevenin source
///     (a = Vs/R_s - I_load, b = 0, G = 1/R_s + 1/R_bleed);
///   * a charge along a certified affine source chord Vs0 + m*t (as above
///     plus b = m/R_s): a sine arc, a wind-gust tail, one trace cell.
/// With G > 0 and tau = C/G the trajectory is the affine particular
/// solution plus a decaying transient,
///
///   V(t) = alpha + beta*t + (v0 - alpha) e^{-t/tau},
///   beta = b/G,  alpha = (a - C*beta)/G,
///
/// and with G = 0 (an unbled decay; b is then 0) the straight ramp
/// v0 + a*t/C. V'(t) is monotone, so the trajectory has at most one
/// interior extremum; with b = 0 it is monotone toward alpha and every
/// inverse is a logarithm. sim::QuiescentEngine books a span's continuum
/// energy split from integral()/square_integral() and plans its event
/// horizon from the inverse time_to_reach().
///
/// Ground clamp: with b = 0 a trajectory that reaches 0 V stays there (its
/// drive is then a <= 0), and both integrals stop at that instant — a load
/// draws nothing from a dead node. With b != 0 the clamp is not modelled;
/// callers certify min_voltage() > 0 over the span instead.
class AffineSolution {
 public:
  /// The zero trajectory (V = 0 throughout).
  AffineSolution() = default;
  /// Requires capacitance > 0, g >= 0, v0 >= 0, and b == 0 when g == 0.
  AffineSolution(Farads capacitance, Amps a, double b, double g, Volts v0);

  [[nodiscard]] Volts v0() const noexcept { return v0_; }

  /// Whether the trajectory is monotone (b == 0): each level is then
  /// crossed at most once and every inverse is closed-form.
  [[nodiscard]] bool monotone() const noexcept { return b_ == 0.0; }

  /// Node voltage after `elapsed` seconds (clamped at ground).
  [[nodiscard]] Volts voltage_at(Seconds elapsed) const;

  /// First-passage time: the first instant the trajectory reaches `v` —
  /// 0 when v == v0, +infinity when it never does (a level behind the
  /// direction of travel, beyond the asymptote, or below ground). With
  /// b == 0 this is the closed-form logarithm (or the ramp's quotient),
  /// exact at any horizon; with b != 0 the window [0, t_max] is split at
  /// the interior extremum and each monotone piece bisected, returning the
  /// lower bracket (at or just before the true crossing, the conservative
  /// side for every planner), and a crossing after t_max reads +infinity.
  [[nodiscard]] Seconds time_to_reach(
      Volts v, Seconds t_max = std::numeric_limits<Seconds>::infinity()) const;

  /// Extrema of the (unclamped) trajectory over [0, elapsed].
  [[nodiscard]] Volts min_voltage(Seconds elapsed) const;
  [[nodiscard]] Volts max_voltage(Seconds elapsed) const;

  /// Minimum over [0, elapsed] of the margin by which the line
  /// `line0 + slope*t` sits above the trajectory — with the source chord
  /// as the line, the rectifier's conduction margin.
  [[nodiscard]] Volts min_margin_below(Volts line0, double slope,
                                       Seconds elapsed) const;

  /// Integral of V over [0, elapsed] (stopping at ground, see above): a
  /// constant load I draws I * integral(elapsed).
  [[nodiscard]] double integral(Seconds elapsed) const;

  /// Integral of V^2 over [0, elapsed] (stopping at ground): a bleed R_b
  /// dissipates square_integral(elapsed) / R_b.
  [[nodiscard]] double square_integral(Seconds elapsed) const;

 private:
  struct Range {
    double lo, hi;
  };
  /// V(t) without the ground clamp.
  [[nodiscard]] Volts raw(Seconds t) const;
  /// Extrema of V(t) - (line0 + slope*t) over [0, elapsed]: endpoints plus
  /// the single interior critical point, when there is one.
  [[nodiscard]] Range deviation_range(Volts line0, double slope,
                                      Seconds elapsed) const;
  /// Where the integrals stop: the instant a b == 0 trajectory reaches
  /// ground on its way down, +infinity otherwise.
  [[nodiscard]] Seconds ground_time() const;

  Volts v0_ = 0.0;
  double b_ = 0.0;
  Volts alpha_ = 0.0;  ///< affine offset (v0 when G == 0)
  double beta_ = 0.0;  ///< affine slope [V/s]
  Volts c_ = 0.0;      ///< transient amplitude v0 - alpha (0 when G == 0)
  Seconds tau_ = std::numeric_limits<Seconds>::infinity();
};

class SupplyNode {
 public:
  /// `capacitance` is the *total* node capacitance. `v_initial` is the node
  /// voltage at t = 0 (usually 0: system starts discharged).
  SupplyNode(Farads capacitance, Volts v_initial = 0.0);

  [[nodiscard]] Volts voltage() const noexcept { return voltage_; }
  [[nodiscard]] Farads capacitance() const noexcept { return capacitance_; }

  /// Stored energy 0.5*C*V^2.
  [[nodiscard]] Joules stored_energy() const noexcept {
    return 0.5 * capacitance_ * voltage_ * voltage_;
  }

  /// Energy accounting accumulated by one step() call.
  struct StepEnergy {
    Joules harvested = 0.0;   ///< delivered into the node by the driver
    Joules consumed = 0.0;    ///< drawn from the node by the load
    Joules dissipated = 0.0;  ///< lost in the bleed/board-leakage resistance
  };

  /// Board leakage: a resistor in parallel with the node (regulator
  /// quiescents, pull-ups, measurement dividers). 0 disables it. Real
  /// transient platforms rely on this bleed to fully discharge between
  /// supply bursts (cf. the decay-to-zero intervals in Fig 7).
  void set_bleed(Ohms bleed_resistance);
  [[nodiscard]] Ohms bleed() const noexcept { return bleed_; }

  /// Advances the node from `t` by `dt` using `substeps` semi-implicit Euler
  /// substeps. The load current is sampled at the start-of-substep voltage.
  StepEnergy step(Seconds t, Seconds dt, const SupplyDriver& driver,
                  const Load& load, int substeps = 4);

  /// Structure-of-arrays view over the node state of many *lockstep* lanes
  /// (batched sweeps, sim/batch_kernel.h): contiguous parallel arrays of
  /// `count` lanes, each lane an independent node advancing through the
  /// same (t, dt, substeps) schedule under the same driver. Per-lane
  /// capacitance/bleed may differ (the sweep's storage axes); the per-step
  /// load draw is hoisted by the caller (the MCU's state draw is constant
  /// across one step's substeps — nothing advances its state machine
  /// between them). The `harvested`/`consumed`/`dissipated` slots are
  /// *overwritten* with the step's energy split, mirroring StepEnergy.
  struct SoaLanes {
    std::size_t count = 0;
    double* v = nullptr;             ///< node voltage, in/out
    const double* capacitance = nullptr;
    const double* bleed = nullptr;   ///< 0 = no bleed path
    const double* i_load = nullptr;  ///< hoisted constant load draw over the step
    double* harvested = nullptr;     ///< out: StepEnergy.harvested per lane
    double* consumed = nullptr;      ///< out: StepEnergy.consumed per lane
    double* dissipated = nullptr;    ///< out: StepEnergy.dissipated per lane
  };

  /// The SoA mirror of step(): advances every lane by dt with the exact
  /// per-lane arithmetic of the scalar substep loop (same expression
  /// structure, no reassociation), but with the source evaluated *once*
  /// per substep instant through SupplyDriver::batch_sample and broadcast
  /// across lanes. Per-lane results are bit-identical to `count`
  /// independent step() calls (differential-tested in
  /// tests/batch_diff_test.cpp); the inner lane loops are omp-simd
  /// vectorizable because each lane is a pure element-wise recurrence.
  /// Precondition: driver.batchable().
  static void step_lanes(Seconds t, Seconds dt, const SupplyDriver& driver,
                         int substeps, const SoaLanes& lanes);

  /// Forces the node voltage (tests; initial conditions).
  void set_voltage(Volts v);

  /// The analytic trajectory this node follows from `v0` under a constant
  /// `load` draw with no injected current: the unpowered decay through the
  /// bleed (see AffineSolution).
  [[nodiscard]] AffineSolution affine_from(Volts v0, Amps load) const;

  /// The analytic trajectory this node follows from `v0` under a constant
  /// `load` draw while a rectified Thevenin source whose open-circuit
  /// voltage ramps v_source0 + slope*t conducts into it through `r_series`
  /// (slope 0: a constant source). The closed form assumes the rectifier
  /// conducts throughout; callers certify that via min_margin_below().
  [[nodiscard]] AffineSolution affine_from(Volts v0, Amps load, Volts v_source0,
                                           double slope, Ohms r_series) const;

 private:
  Farads capacitance_;
  Volts voltage_;
  Ohms bleed_ = 0.0;  // 0 = no bleed
};

}  // namespace edc::circuit
