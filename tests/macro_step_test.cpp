// Differential suite for the quiescent-state engine
// (sim/quiescent_engine) — analytic macro-stepping of MCU-off spans *and*
// comparator-watched sleep/wait/done spans.
//
// The macro path replaces the fine path's Euler substepping through
// quiescent spans with the closed-form decay and driver activity hints, so
// it is *not* bit-identical — but it must agree with the fine-stepped
// reference within the fine path's own discretisation error:
//
//   * end state (voltage / stored energy) within a few macro_v_tol,
//   * discrete event counts (boots, brownouts, saves, restores) equal,
//   * transition times matching to a handful of dt,
//   * probe/governor schedules in lock-step (same sample counts),
//   * the energy ledger closing exactly (macro spans book a zero-residual
//     split by construction).
//
// Also covers the building blocks: the AffineSolution closed form against
// numerical integration, the ActivityIndex over recorded traces, the
// never-overclaim contract of every quiescent_until/bounded_until/
// dormant_until override, and bit-identity of the (hint-accelerated)
// quiescent fast path when macro-stepping stays off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "edc/checkpoint/interrupt_policy.h"
#include "edc/checkpoint/null_policy.h"
#include "edc/circuit/comparator.h"
#include "edc/circuit/rectifier.h"
#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/spec/system_spec.h"
#include "edc/core/system.h"
#include "edc/mcu/mcu.h"
#include "edc/sim/quiescent_engine.h"
#include "edc/sim/simulator.h"
#include "edc/trace/power_sources.h"
#include "edc/trace/voltage_sources.h"
#include "edc/trace/waveform.h"
#include "edc/workloads/program.h"

namespace {

using namespace edc;

// ------------------------------------------------------------ DecaySolution
// The closed form circuit::AffineSolution in its decay regime:
// C dV/dt = -V/Rb - I (SupplyNode::affine_from without a source).

TEST(DecaySolution, MatchesNumericalIntegrationWithBleedAndLoad) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  const circuit::AffineSolution decay = node.affine_from(2.5, 5e-6);

  // Reference: forward Euler at a step far finer than the simulator's.
  double v = 2.5;
  double load_energy = 0.0;
  const double h = 1e-7;
  const double horizon = 0.25;  // ~1.8 tau
  for (double t = 0.0; t < horizon; t += h) {
    const double i_bleed = v / 3000.0;
    const double i_load = v > 0.0 ? 5e-6 : 0.0;
    load_energy += i_load * v * h;
    v = std::max(v - (i_bleed + i_load) / 47e-6 * h, 0.0);
  }
  EXPECT_NEAR(decay.voltage_at(horizon), v, 1e-4);
  EXPECT_NEAR(5e-6 * decay.integral(horizon), load_energy, 1e-9);
}

TEST(DecaySolution, PureLeakageRampReachesGroundExactly) {
  circuit::SupplyNode node(10e-6);  // no bleed
  const circuit::AffineSolution decay = node.affine_from(1.0, 1e-6);
  const Seconds t_zero = decay.time_to_reach(0.0);
  EXPECT_NEAR(t_zero, 10e-6 * 1.0 / 1e-6, 1e-9);  // C*V/I = 10 s
  EXPECT_DOUBLE_EQ(decay.voltage_at(t_zero * 2.0), 0.0);
  // Past ground the load draws nothing more: energy saturates at the full
  // stored energy 0.5*C*V0^2.
  EXPECT_NEAR(1e-6 * decay.integral(t_zero * 2.0), 0.5 * 10e-6, 1e-12);
}

TEST(DecaySolution, BleedOnlyNeverTouchesGround) {
  circuit::SupplyNode node(10e-6);
  node.set_bleed(10000.0);
  const circuit::AffineSolution decay = node.affine_from(2.0, 0.0);
  EXPECT_TRUE(std::isinf(decay.time_to_reach(0.0)));
  EXPECT_GT(decay.voltage_at(10.0), 0.0);
  // With no load the whole stored-energy drop is the bleed's.
  const Volts v1 = decay.voltage_at(10.0);
  EXPECT_NEAR(decay.square_integral(10.0) / 10000.0,
              0.5 * 10e-6 * (2.0 * 2.0 - v1 * v1), 1e-12);
}

/// Numeric reference for time_to_reach: bisection on the (monotone)
/// closed-form trajectory itself.
Seconds bisect_time_to_reach(const circuit::AffineSolution& decay, Volts v,
                             Seconds hi) {
  Seconds lo = 0.0;
  for (int i = 0; i < 200; ++i) {
    const Seconds mid = 0.5 * (lo + hi);
    if (decay.voltage_at(mid) > v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

TEST(DecaySolution, TimeToReachMatchesNumericRootFinding) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  const circuit::AffineSolution decay = node.affine_from(2.5, 5e-6);
  for (const Volts v : {2.2, 1.8, 1.0, 0.3, 0.05}) {
    const Seconds analytic = decay.time_to_reach(v);
    const Seconds numeric = bisect_time_to_reach(decay, v, 10.0);
    EXPECT_NEAR(analytic, numeric, 1e-9) << "target " << v;
    // Inverse property: following the trajectory to the solved instant
    // lands on the target voltage.
    EXPECT_NEAR(decay.voltage_at(analytic), v, 1e-9) << "target " << v;
  }
}

TEST(DecaySolution, TimeToReachPureRampAndEdgeCases) {
  circuit::SupplyNode node(10e-6);  // no bleed: constant-current ramp
  const circuit::AffineSolution ramp = node.affine_from(2.0, 1e-6);
  EXPECT_NEAR(ramp.time_to_reach(1.0), 10e-6 * 1.0 / 1e-6, 1e-12);  // C*dV/I
  EXPECT_DOUBLE_EQ(ramp.time_to_reach(2.0), 0.0);  // already there
  // The inverse is a first-passage time: a decay never climbs back to a
  // level above its start.
  EXPECT_TRUE(std::isinf(ramp.time_to_reach(2.5)));
  EXPECT_NEAR(ramp.time_to_reach(0.0), 10e-6 * 2.0 / 1e-6, 1e-9);  // C*V0/I

  // Exponential tail: the asymptote is ground, so 0 V is never reached.
  node.set_bleed(10000.0);
  const circuit::AffineSolution tail = node.affine_from(2.0, 0.0);
  EXPECT_TRUE(std::isinf(tail.time_to_reach(0.0)));
  EXPECT_NEAR(tail.time_to_reach(1.0), 10e-6 * 10000.0 * std::log(2.0), 1e-9);

  // No bleed, no load: the voltage holds forever.
  circuit::SupplyNode held(10e-6);
  EXPECT_TRUE(std::isinf(held.affine_from(2.0, 0.0).time_to_reach(1.0)));
}

TEST(ComparatorBank, PlanFallingCrossingFindsTheHighestArmedTrip) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  const circuit::AffineSolution decay = node.affine_from(3.0, 1e-6);
  const Seconds forever = std::numeric_limits<Seconds>::infinity();

  circuit::ComparatorBank bank;
  bank.add(circuit::Comparator("VR", 2.5, 0.0));
  bank.add(circuit::Comparator("VH", 2.0, 0.0));
  bank.reset(3.0);  // both outputs high: armed for falling trips

  const circuit::Crossing first = bank.plan_crossing(decay, 0.0, forever);
  EXPECT_DOUBLE_EQ(first.trip, 2.5);  // the decay hits VR first
  EXPECT_NEAR(first.time, decay.time_to_reach(2.5), 1e-12);

  // Fire VR (output low): the next crossing is VH.
  (void)bank.at(0).update(3.0, 0.0, 2.4, 1.0);
  const circuit::Crossing second = bank.plan_crossing(decay, 0.0, forever);
  EXPECT_DOUBLE_EQ(second.trip, 2.0);
  EXPECT_NEAR(second.time, decay.time_to_reach(2.0), 1e-12);

  // A decay starting below every armed trip can never fire: planning from
  // v0 = 1.5 with both comparators latched low claims no crossing.
  bank.reset(1.0);
  EXPECT_TRUE(std::isinf(
      bank.plan_crossing(node.affine_from(1.5, 1e-6), 0.0, forever).time));
}

TEST(DecaySolution, LedgerSplitClosesExactly) {
  circuit::SupplyNode node(22e-6);
  node.set_bleed(5000.0);
  const circuit::AffineSolution decay = node.affine_from(1.7, 0.05e-6);
  const Seconds span = 0.4;
  const Volts v1 = decay.voltage_at(span);
  const Joules delta = 0.5 * 22e-6 * (1.7 * 1.7 - v1 * v1);
  const Joules consumed = 0.05e-6 * decay.integral(span);
  // consumed + dissipated == delta by construction; consumed must fit.
  EXPECT_LE(consumed, delta + 1e-15);
  EXPECT_GE(consumed, 0.0);
}

// ------------------------------------------------------------ ActivityIndex

TEST(ActivityIndex, FindsZeroSpansBetweenBursts) {
  // 0 on [0,1), 2.0 on [1,2), 0 on [2,4] — sampled at 10 Hz.
  const auto wave = trace::Waveform::sample(
      [](Seconds t) { return (t >= 1.0 && t < 2.0) ? 2.0 : 0.0; }, 0.0, 4.0, 41);
  const trace::ActivityIndex index(wave);
  EXPECT_EQ(index.segment_count(), 1u);
  // Inside the leading zero span: quiet until just before the burst (the
  // cell whose right endpoint is the first nonzero sample is active).
  const Seconds u = index.zero_until(0.2);
  EXPECT_GE(u, 0.8);
  EXPECT_LE(u, 1.0);
  // Inside the burst: no claim.
  EXPECT_EQ(index.zero_until(1.5), 1.5);
  // In the trailing zero span: quiet forever (the trace ends at zero and
  // clamps there).
  EXPECT_TRUE(std::isinf(index.zero_until(3.0)));
}

TEST(ActivityIndex, EdgeClampingExtendsActivityBeyondTheSpan) {
  // Ends on a nonzero sample: the clamp keeps it active forever after.
  const trace::Waveform wave(0.0, 1.0, {0.0, 0.0, 1.5});
  const trace::ActivityIndex index(wave);
  EXPECT_EQ(index.zero_until(5.0), 5.0);
  // And the leading zero region is still quiet.
  const Seconds u = index.zero_until(0.0);
  EXPECT_GE(u, 1.0);
  EXPECT_LE(u, 2.0);
}

TEST(ActivityIndex, AllZeroTraceIsQuietForever) {
  const trace::Waveform wave(0.0, 1.0, {0.0, 0.0, 0.0});
  const trace::ActivityIndex index(wave);
  EXPECT_EQ(index.segment_count(), 0u);
  EXPECT_TRUE(std::isinf(index.zero_until(-3.0)));
  EXPECT_TRUE(std::isinf(index.zero_until(100.0)));
}

TEST(ActivityIndex, NonzeroHeadClampsActiveBeforeTheSpan) {
  const trace::Waveform wave(1.0, 1.0, {2.0, 0.0, 0.0});
  const trace::ActivityIndex index(wave);
  EXPECT_EQ(index.zero_until(0.0), 0.0);  // clamped to the nonzero head
  EXPECT_TRUE(std::isinf(index.zero_until(2.5)));
}

// ------------------------------------------------------- ChargeSolution ---
// The closed form in its rectified-RC regime: C dV/dt = (Vs - V)/Rs - V/Rb
// - I (SupplyNode::affine_from with a constant source).

TEST(ChargeSolution, MatchesNumericalIntegrationWithBleedAndLoad) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  // A 3.05 V rectified source through 50 ohm into the bled node with the
  // sleep draw — the Fig 7 charging-ramp configuration.
  const circuit::AffineSolution charge = node.affine_from(0.4, 1.5e-6, 3.05, 0.0, 50.0);

  double v = 0.4;
  double load_energy = 0.0, bleed_energy = 0.0;
  const double h = 1e-7;
  const double horizon = 6e-3;  // ~2.5 tau
  for (double t = 0.0; t < horizon; t += h) {
    const double i_in = (3.05 - v) / 50.0;
    const double i_bleed = v / 3000.0;
    const double i_load = 1.5e-6;
    load_energy += i_load * v * h;
    bleed_energy += i_bleed * v * h;
    v += (i_in - i_bleed - i_load) / 47e-6 * h;
  }
  EXPECT_NEAR(charge.voltage_at(horizon), v, 1e-4);
  EXPECT_NEAR(1.5e-6 * charge.integral(horizon), load_energy, 1e-11);
  EXPECT_NEAR(charge.square_integral(horizon) / 3000.0, bleed_energy,
              1e-6 * bleed_energy + 1e-12);
  // The asymptote (reached once the transient has vanished) sits strictly
  // below the source (the bleed drops some of it) and the trajectory
  // approaches it from below.
  const Volts v_inf = charge.voltage_at(10.0);
  EXPECT_LT(v_inf, 3.05);
  EXPECT_GT(v_inf, charge.voltage_at(horizon));
}

/// Numeric reference for the rising inverse: bisection on the closed-form
/// trajectory itself.
Seconds bisect_time_to_climb(const circuit::AffineSolution& charge, Volts v,
                             Seconds hi) {
  Seconds lo = 0.0;
  for (int i = 0; i < 200; ++i) {
    const Seconds mid = 0.5 * (lo + hi);
    if (charge.voltage_at(mid) < v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

TEST(ChargeSolution, TimeToReachMatchesNumericRootFindingAndEdgeCases) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  const circuit::AffineSolution charge = node.affine_from(0.0, 0.05e-6, 3.05, 0.0, 50.0);
  const Volts v_inf = charge.voltage_at(10.0);  // the asymptote
  for (const Volts v : {0.5, 1.8, 2.0, 2.5, v_inf * 0.999}) {
    const Seconds analytic = charge.time_to_reach(v);
    const Seconds numeric = bisect_time_to_climb(charge, v, 1.0);
    EXPECT_NEAR(analytic, numeric, 1e-9) << "target " << v;
    EXPECT_NEAR(charge.voltage_at(analytic), v, 1e-9) << "target " << v;
  }
  EXPECT_DOUBLE_EQ(charge.time_to_reach(0.0), 0.0);      // already there
  EXPECT_TRUE(std::isinf(charge.time_to_reach(v_inf)));  // asymptote: never
  EXPECT_TRUE(std::isinf(charge.time_to_reach(3.05)));   // beyond it: never

  // Sagging direction (started above the equilibrium): monotone down.
  const circuit::AffineSolution sag = node.affine_from(2.9, 0.0, 1.0, 0.0, 50.0);
  EXPECT_LT(sag.voltage_at(10.0), 2.9);
  EXPECT_DOUBLE_EQ(sag.time_to_reach(2.9), 0.0);
  const Seconds down = sag.time_to_reach(1.5);
  EXPECT_GT(down, 0.0);
  EXPECT_NEAR(sag.voltage_at(down), 1.5, 1e-9);
}

TEST(ChargeSolution, LedgerDerivedHarvestIsExact) {
  // The engine books harvested = stored delta + load + bleed; against the
  // analytic input integral int i_in * V dt the residual must be pure
  // rounding.
  circuit::SupplyNode node(22e-6);
  node.set_bleed(5000.0);
  const circuit::AffineSolution charge = node.affine_from(0.2, 2e-6, 3.0, 0.0, 100.0);
  const Seconds span = 4e-3;
  const Volts v1 = charge.voltage_at(span);
  const Joules delta = 0.5 * 22e-6 * (v1 * v1 - 0.2 * 0.2);
  const Joules harvested =
      delta + 2e-6 * charge.integral(span) + charge.square_integral(span) / 5000.0;
  double input = 0.0;  // numeric int i_in * V dt
  double v = 0.2;
  const double h = 1e-7;
  for (double t = 0.0; t < span; t += h) {
    const double i_in = (3.0 - v) / 100.0;
    input += i_in * v * h;
    v += (i_in - v / 5000.0 - 2e-6) / 22e-6 * h;
  }
  EXPECT_NEAR(harvested, input, 1e-5 * input);
  EXPECT_GE(harvested, 0.0);
}

// --------------------------------------------------- LinearRampSolution ---
// The closed form in its affine-source regime: C dV/dt =
// (Vs0 + m*t - V)/Rs - V/Rb - I.

TEST(LinearRampSolution, MatchesNumericalIntegrationWithBleedAndLoad) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  // A sine-arc chord: source ramping 2.8 -> 3.4 V over the window through
  // 50 ohm into the bled node with the sleep draw.
  const circuit::AffineSolution ramp = node.affine_from(0.4, 1.5e-6, 2.8, 100.0, 50.0);

  double v = 0.4;
  double load_energy = 0.0, bleed_energy = 0.0;
  const double h = 1e-7;
  const double horizon = 6e-3;  // ~2.5 tau
  for (double t = 0.0; t < horizon; t += h) {
    const double i_in = (2.8 + 100.0 * t - v) / 50.0;
    const double i_bleed = v / 3000.0;
    const double i_load = 1.5e-6;
    load_energy += i_load * v * h;
    bleed_energy += i_bleed * v * h;
    v += (i_in - i_bleed - i_load) / 47e-6 * h;
  }
  EXPECT_NEAR(ramp.voltage_at(horizon), v, 1e-4);
  EXPECT_NEAR(1.5e-6 * ramp.integral(horizon), load_energy, 1e-11);
  EXPECT_NEAR(ramp.square_integral(horizon) / 3000.0, bleed_energy,
              1e-5 * bleed_energy + 1e-12);
  // Zero slope must reduce to the textbook RC charge
  // v_inf + (v0 - v_inf) e^{-s/tau} and its integrals.
  const circuit::AffineSolution flat = node.affine_from(0.4, 1.5e-6, 3.05, 0.0, 50.0);
  const double g = 1.0 / 50.0 + 1.0 / 3000.0;
  const Volts v_inf = (3.05 / 50.0 - 1.5e-6) / g;
  const Seconds tau = 47e-6 / g;
  for (const Seconds s : {1e-4, 1e-3, 5e-3}) {
    const double e1 = -std::expm1(-s / tau);
    const double e2 = -std::expm1(-2.0 * s / tau);
    const Volts dv = 0.4 - v_inf;
    EXPECT_NEAR(flat.voltage_at(s), v_inf + dv * std::exp(-s / tau), 1e-9);
    EXPECT_NEAR(1.5e-6 * flat.integral(s), 1.5e-6 * (v_inf * s + dv * tau * e1), 1e-13);
    EXPECT_NEAR(flat.square_integral(s) / 3000.0,
                (v_inf * v_inf * s + 2.0 * v_inf * dv * tau * e1 +
                 dv * dv * 0.5 * tau * e2) / 3000.0,
                1e-12);
  }
}

TEST(LinearRampSolution, LedgerDerivedHarvestIsExact) {
  // harvested = stored delta + load + bleed against the numeric
  // int i_in * V dt: the residual must be pure rounding.
  circuit::SupplyNode node(22e-6);
  node.set_bleed(5000.0);
  const circuit::AffineSolution ramp = node.affine_from(0.2, 2e-6, 3.0, -120.0, 100.0);
  const Seconds span = 4e-3;
  const Volts v1 = ramp.voltage_at(span);
  const Joules delta = 0.5 * 22e-6 * (v1 * v1 - 0.2 * 0.2);
  const Joules harvested =
      delta + 2e-6 * ramp.integral(span) + ramp.square_integral(span) / 5000.0;
  double input = 0.0;  // numeric int i_in * V dt
  double v = 0.2;
  const double h = 1e-7;
  for (double t = 0.0; t < span; t += h) {
    const double i_in = (3.0 - 120.0 * t - v) / 100.0;
    input += i_in * v * h;
    v += (i_in - v / 5000.0 - 2e-6) / 22e-6 * h;
  }
  EXPECT_NEAR(harvested, input, 1e-5 * input);
  EXPECT_GE(harvested, 0.0);
}

/// Numeric reference for the ramp inverse: dense forward scan for the
/// first closed-form instant at or past the target (handles the
/// non-monotone overshoot cases bisection-from-outside would miss).
Seconds scan_time_to_reach(const circuit::AffineSolution& ramp, Volts v,
                           Seconds t_max) {
  const Seconds h = t_max / 4e6;
  const bool from_below = ramp.voltage_at(0.0) < v;
  for (Seconds t = 0.0; t <= t_max; t += h) {
    const Volts now = ramp.voltage_at(t);
    if (from_below ? now >= v : now <= v) return t;
  }
  return std::numeric_limits<Seconds>::infinity();
}

TEST(LinearRampSolution, TimeToReachMatchesNumericScanAndEdgeCases) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  // Rising ramp from below: monotone climb through every target.
  const circuit::AffineSolution up = node.affine_from(0.5, 1e-6, 2.0, 300.0, 50.0);
  for (const Volts v : {1.0, 1.9, 2.5}) {
    const Seconds analytic = up.time_to_reach(v, 20e-3);
    const Seconds numeric = scan_time_to_reach(up, v, 20e-3);
    ASSERT_TRUE(std::isfinite(analytic)) << "target " << v;
    EXPECT_NEAR(analytic, numeric, 1e-7) << "target " << v;
    // The bisection returns the conservative (lower) bracket: at or just
    // before the crossing, never past it by more than the bracket width.
    EXPECT_NEAR(up.voltage_at(analytic), v, 1e-5) << "target " << v;
  }
  EXPECT_DOUBLE_EQ(up.time_to_reach(0.5, 20e-3), 0.0);  // already there
  EXPECT_TRUE(std::isinf(up.time_to_reach(9.0, 20e-3)));  // beyond the window

  // Falling source from a high node: the transient dips *through* targets
  // the endpoint pair would miss — the interior-extremum split must find
  // the first crossing, and the dip's floor must match min_voltage.
  const circuit::AffineSolution dip = node.affine_from(3.0, 0.5e-6, 0.5, 400.0, 50.0);
  const Seconds window = 30e-3;
  const Volts floor_v = dip.min_voltage(window);
  EXPECT_LT(floor_v, std::min(dip.voltage_at(0.0), dip.voltage_at(window)));
  const Volts target = floor_v + 0.05;
  const Seconds analytic = dip.time_to_reach(target, window);
  const Seconds numeric = scan_time_to_reach(dip, target, window);
  ASSERT_TRUE(std::isfinite(analytic));
  EXPECT_NEAR(analytic, numeric, 1e-6);
  // The dip recrosses the target on the way back up: the solve must report
  // the *first* crossing (the falling one), not the later rising one.
  EXPECT_LT(analytic, window / 2);

  // min/max and the conduction margin against dense sampling.
  Volts lo = 1e9, hi = -1e9, margin = 1e9;
  for (int i = 0; i <= 400000; ++i) {
    const Seconds t = window * static_cast<double>(i) / 400000.0;
    const Volts v = dip.voltage_at(t);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    margin = std::min(margin, (0.5 + 400.0 * t) - v);
  }
  EXPECT_NEAR(dip.min_voltage(window), lo, 1e-8);
  EXPECT_NEAR(dip.max_voltage(window), hi, 1e-8);
  EXPECT_NEAR(dip.min_margin_below(0.5, 400.0, window), margin, 1e-6);
}

TEST(ComparatorBank, PlanRampCrossingUsesBandEntryOnBothEdges) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  const circuit::AffineSolution up = node.affine_from(0.5, 1e-6, 2.0, 300.0, 50.0);

  circuit::ComparatorBank bank;
  bank.add(circuit::Comparator("VR", 2.5, 0.0));
  bank.add(circuit::Comparator("VH", 2.0, 0.0));
  bank.reset(0.5);  // both outputs low: armed for rising trips

  const Volts pad = 1e-4;
  const circuit::Crossing rise = bank.plan_crossing(up, pad, 20e-3);
  ASSERT_TRUE(std::isfinite(rise.time));
  EXPECT_DOUBLE_EQ(rise.trip, 2.0);  // the rise enters VH's band first
  // Band entry from below: the first instant the trajectory reaches
  // trip - pad, which bounds every possible fire from below.
  EXPECT_NEAR(rise.time, up.time_to_reach(2.0 - pad, 20e-3), 1e-12);
  EXPECT_LE(up.voltage_at(rise.time), 2.0 - pad + 1e-9);

  // A ramp already inside a band cannot certify any span: entry now.
  const circuit::AffineSolution inside = node.affine_from(2.0, 1e-6, 2.6, 100.0, 50.0);
  EXPECT_DOUBLE_EQ(bank.plan_crossing(inside, pad, 20e-3).time, 0.0);

  // Output state does not disarm a trip on a non-monotone ramp: a high
  // output watches its *falling* trip even while the source ramps upward.
  circuit::ComparatorBank high;
  high.add(circuit::Comparator("VH", 2.0, 0.0));
  high.reset(3.0);  // output high: armed falling
  const circuit::AffineSolution sag = node.affine_from(3.0, 0.5e-6, 0.5, 400.0, 50.0);
  const circuit::Crossing fall = high.plan_crossing(sag, pad, 30e-3);
  ASSERT_TRUE(std::isfinite(fall.time));
  EXPECT_DOUBLE_EQ(fall.trip, 2.0);
  EXPECT_NEAR(fall.time, sag.time_to_reach(2.0 + pad, 30e-3), 1e-12);
}

TEST(ComparatorBank, PlanRisingCrossingFindsTheLowestArmedTrip) {
  circuit::SupplyNode node(47e-6);
  node.set_bleed(3000.0);
  const circuit::AffineSolution charge = node.affine_from(0.5, 1e-6, 3.05, 0.0, 50.0);
  const Seconds forever = std::numeric_limits<Seconds>::infinity();

  circuit::ComparatorBank bank;
  bank.add(circuit::Comparator("VR", 2.5, 0.0));
  bank.add(circuit::Comparator("VH", 2.0, 0.0));
  bank.reset(0.5);  // both outputs low: armed for rising trips

  const circuit::Crossing first = bank.plan_crossing(charge, 0.0, forever);
  EXPECT_DOUBLE_EQ(first.trip, 2.0);  // the rise hits VH first
  EXPECT_NEAR(first.time, charge.time_to_reach(2.0), 1e-12);

  // Fire VH (output high): the next rising crossing is VR.
  (void)bank.at(1).update(1.9, 0.0, 2.1, 1.0);
  const circuit::Crossing second = bank.plan_crossing(charge, 0.0, forever);
  EXPECT_DOUBLE_EQ(second.trip, 2.5);
  EXPECT_NEAR(second.time, charge.time_to_reach(2.5), 1e-12);

  // A rise starting above every armed trip can never fire them; and a trip
  // beyond the asymptote is never reached.
  bank.reset(2.6);
  EXPECT_TRUE(std::isinf(
      bank.plan_crossing(node.affine_from(2.6, 1e-6, 3.05, 0.0, 50.0), 0.0, forever)
          .time));
  circuit::ComparatorBank high_bank;
  high_bank.add(circuit::Comparator("HI", 3.2, 0.0));
  high_bank.reset(0.5);
  EXPECT_TRUE(std::isinf(high_bank.plan_crossing(charge, 0.0, forever).time));
}

// ------------------------------------------------- charge-span certs ------

/// Samples the driver densely over every window plan_charge_span certifies
/// and fails unless the output is exactly the certified Thevenin form —
/// the exactness contract charge spans rest on.
void expect_exact_charge_certs(const circuit::SupplyDriver& driver, Seconds horizon) {
  const int kQueries = 300;
  const int kSamplesPerWindow = 200;
  int certified = 0;
  for (int q = 0; q < kQueries; ++q) {
    const Seconds t = horizon * static_cast<double>(q) / kQueries;
    const circuit::ChargeSpanCert cert = driver.plan_charge_span(t);
    if (!cert.valid) continue;
    ++certified;
    ASSERT_GT(cert.until, t);
    ASSERT_GT(cert.r_series, 0.0);
    const Seconds end = std::min(cert.until, horizon + 1.0);
    for (int s = 0; s < kSamplesPerWindow; ++s) {
      const Seconds instant =
          t + (end - t) * (static_cast<double>(s) / kSamplesPerWindow);
      for (const Volts v : {0.0, 0.7, cert.v_source * 0.5, cert.v_source + 0.5}) {
        const Amps expected =
            std::max(0.0, (cert.v_source - v) / cert.r_series);
        ASSERT_EQ(driver.current_into(v, instant), expected)
            << "driver '" << driver.name() << "' certified v_source="
            << cert.v_source << " at t=" << t << " until " << cert.until
            << " but diverges at " << instant << " (v=" << v << ")";
      }
    }
  }
  EXPECT_GT(certified, 0) << "driver never certified a window";
}

TEST(ChargeSpanCert, RectifiedSquareIsExactOverEveryWindow) {
  const trace::SquareVoltageSource source(3.3, 7.0, 0.35, 0.0, 50.0);
  const circuit::RectifiedSourceDriver driver(source, circuit::RectifierParams{});
  expect_exact_charge_certs(driver, 1.0);
}

TEST(ChargeSpanCert, RectifiedDcIsCertifiedForever) {
  const trace::SineVoltageSource dc(0.0, 0.0, 3.3, 50.0);
  const circuit::RectifiedSourceDriver driver(dc, circuit::RectifierParams{});
  const circuit::ChargeSpanCert cert = driver.plan_charge_span(0.25);
  ASSERT_TRUE(cert.valid);
  EXPECT_TRUE(std::isinf(cert.until));
  EXPECT_DOUBLE_EQ(cert.v_source, 3.3 - 0.25);  // one diode drop
  // A live sine certifies nothing.
  const trace::SineVoltageSource live(3.3, 6.0);
  const circuit::RectifiedSourceDriver live_driver(live, circuit::RectifierParams{});
  EXPECT_FALSE(live_driver.plan_charge_span(0.25).valid);
}

TEST(ChargeSpanCert, RecordedConstantRunsAreExact) {
  // A trace alternating DC plateaus and a ramp: the run-length walk must
  // certify the plateaus exactly and never the ramp cells.
  std::vector<double> samples;
  for (int i = 0; i < 40; ++i) samples.push_back(2.0);
  for (int i = 0; i < 20; ++i) samples.push_back(2.0 + 0.05 * i);
  for (int i = 0; i < 40; ++i) samples.push_back(0.0);
  const trace::Waveform wave(0.0, 0.01, samples);
  const trace::WaveformVoltageSource source(wave, 50.0);
  const circuit::RectifiedSourceDriver driver(source, circuit::RectifierParams{});
  expect_exact_charge_certs(driver, 1.2);
  // Inside the plateau the window must reach (nearly) the plateau's end —
  // which includes the ramp's first sample (also 2.0; the cell after it
  // interpolates away from 2.0 and must not be certified).
  Volts value = 0.0;
  const Seconds u = source.constant_until(0.05, &value);
  EXPECT_DOUBLE_EQ(value, 2.0);
  EXPECT_GT(u, 0.39);
  EXPECT_LE(u, 0.40 + 1e-9);
  // The trailing zero run extends forever through the clamp.
  EXPECT_TRUE(std::isinf(source.constant_until(0.85, &value)));
  EXPECT_DOUBLE_EQ(value, 0.0);
}

// ------------------------------------------------- float-guard back-off ---

// time_to_reach and voltage_at invert each other only up to rounding, so
// the watcher horizon alone can admit a span ending on the power-on level,
// which would swallow the boot; the planner's float guard backs such spans
// off a step. A power-on level placed exactly on the planner's own
// exact-charge trajectory at step k lands the rounding on both sides.
TEST(QuiescentEngine, FloatGuardEndsSpansBeforeThePowerOnLevel) {
  const trace::SineVoltageSource dc(0.0, 0.0, 3.3, 50.0);
  const circuit::RectifiedSourceDriver driver(dc, circuit::RectifierParams{});
  circuit::SupplyNode node(10e-6);
  node.set_bleed(20000.0);
  sim::SimConfig config;
  config.macro_stepping = true;
  const Seconds dt = config.dt;
  auto program = workloads::make_program("crc", 1);
  checkpoint::NullPolicy policy;

  // The trajectory plan() follows from 0 V: the DC source through one
  // diode drop, drawing the off-state leakage.
  const circuit::ChargeSpanCert cert = driver.plan_charge_span(0.0);
  ASSERT_TRUE(cert.valid);
  const Amps leakage =
      mcu::Mcu(mcu::McuParams{}, *program, policy).current_draw(0.0, 0.0);
  const circuit::AffineSolution trajectory =
      node.affine_from(0.0, leakage, cert.v_source, 0.0, cert.r_series);

  constexpr std::uint64_t kMaxSteps = 8000;
  std::uint64_t backed_off = 0;
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    mcu::McuParams params;
    params.power.v_on = trajectory.voltage_at(dt * static_cast<double>(k));
    if (params.power.v_on < params.power.v_min) continue;
    const mcu::Mcu mcu(params, *program, policy);
    const circuit::Crossing crossing = mcu.plan_crossing(
        trajectory, 0.0, dt * (static_cast<double>(kMaxSteps) + 1.0));
    if (!std::isfinite(crossing.time)) continue;

    const auto span = sim::QuiescentEngine(config, node, driver, mcu).plan(0.0, kMaxSteps);
    ASSERT_TRUE(span.has_value()) << "k = " << k;
    EXPECT_LT(span->v_end, params.power.v_on) << "k = " << k;
    // The watcher horizon admitted k steps, the guard ended the span sooner.
    if (span->steps < k &&
        std::ceil(crossing.time / dt) - 1.0 >= static_cast<double>(k)) {
      ++backed_off;
    }
  }
  EXPECT_GT(backed_off, 0u);
}

// ------------------------------------------- never-overclaim contracts ----

/// Samples the driver densely over every span its quiescent_until claims
/// quiet (for node voltages at and above the floor) and fails on any
/// injected current — the one property macro-stepping correctness rests on.
void expect_never_overclaims(const circuit::SupplyDriver& driver, Volts v_floor,
                             Seconds horizon) {
  const int kQueries = 400;
  const int kSamplesPerSpan = 250;
  for (int q = 0; q < kQueries; ++q) {
    const Seconds t = horizon * static_cast<double>(q) / kQueries;
    const Seconds u = driver.quiescent_until(v_floor, t);
    ASSERT_GE(u, t);
    const Seconds end = std::min(u, horizon + 1.0);
    if (end <= t) continue;
    for (int s = 0; s < kSamplesPerSpan; ++s) {
      // Half-open span: sample strictly before u.
      const Seconds instant =
          t + (end - t) * (static_cast<double>(s) / kSamplesPerSpan);
      for (const Volts v : {v_floor, v_floor + 0.7, v_floor + 3.0}) {
        ASSERT_EQ(driver.current_into(v, instant), 0.0)
            << "driver '" << driver.name() << "' claimed quiet at t=" << t
            << " until u=" << u << " but conducts at " << instant << " (v=" << v
            << ")";
      }
    }
  }
}

TEST(QuiescentUntil, NullDriverIsQuietForever) {
  const circuit::NullDriver driver;
  EXPECT_TRUE(std::isinf(driver.quiescent_until(0.0, 12.5)));
}

TEST(QuiescentUntil, RectifiedSquareNeverOverclaims) {
  const trace::SquareVoltageSource source(3.3, 7.0, 0.35, 0.0, 50.0);
  const circuit::RectifiedSourceDriver driver(source, circuit::RectifierParams{});
  expect_never_overclaims(driver, 0.0, 1.0);
  expect_never_overclaims(driver, 1.4, 1.0);
}

TEST(QuiescentUntil, RectifiedSineNeverOverclaimsHalfAndFullWave) {
  const trace::SineVoltageSource source(3.3, 6.0);
  const circuit::RectifiedSourceDriver half(source, circuit::RectifierParams{});
  expect_never_overclaims(half, 0.0, 1.0);
  expect_never_overclaims(half, 2.1, 1.0);
  circuit::RectifierParams full;
  full.kind = circuit::RectifierKind::full_wave;
  const circuit::RectifiedSourceDriver full_driver(source, full);
  expect_never_overclaims(full_driver, 0.0, 1.0);
  expect_never_overclaims(full_driver, 2.1, 1.0);
}

TEST(QuiescentUntil, OffsetSineNeverOverclaims) {
  // A DC offset moves both band edges into play.
  const trace::SineVoltageSource source(1.2, 3.0, 1.0);
  const circuit::RectifiedSourceDriver driver(source, circuit::RectifierParams{});
  expect_never_overclaims(driver, 0.0, 2.0);
  expect_never_overclaims(driver, 0.9, 2.0);
}

TEST(QuiescentUntil, HarvesterRfFieldNeverOverclaims) {
  trace::RfFieldSource::Params rf;
  rf.burst_length = 0.25;
  rf.burst_period = 1.5;
  rf.jitter = 0.3;
  const trace::RfFieldSource source(rf, 42, 8.0);
  const circuit::HarvesterPowerDriver driver(source, {});
  expect_never_overclaims(driver, 0.0, 8.0);
}

TEST(QuiescentUntil, HarvesterMarkovNeverOverclaims) {
  const trace::MarkovOnOffPowerSource source(1e-3, 0.05, 0.4, 7, 6.0);
  const circuit::HarvesterPowerDriver driver(source, {});
  expect_never_overclaims(driver, 0.0, 6.0);
}

TEST(QuiescentUntil, HarvesterSolarNightNeverOverclaims) {
  trace::OutdoorSolarSource::Params params;
  const trace::OutdoorSolarSource source(params, 3, 2);
  const circuit::HarvesterPowerDriver driver(source, {});
  // Query across the two modelled days plus the permanent night beyond.
  const int kQueries = 300;
  for (int q = 0; q < kQueries; ++q) {
    const Seconds t = 3.0 * 86400.0 * q / kQueries;
    const Seconds u = driver.quiescent_until(0.0, t);
    ASSERT_GE(u, t);
    if (u <= t) continue;
    const Seconds end = std::min(u, 3.0 * 86400.0);
    for (int s = 0; s < 200; ++s) {
      const Seconds instant = t + (end - t) * (s / 200.0);
      ASSERT_EQ(driver.current_into(0.0, instant), 0.0) << "t=" << t << " u=" << u;
    }
  }
}

// ---------------------------------------------------- QuietSegmentIndex ---

TEST(QuietSegmentIndex, WalksCellsAndHonoursHeadAndTail) {
  // Three cells of 1 s: [-1,1], [0,0], [2,3]; zero head, constant-2 tail.
  const trace::QuietSegmentIndex index(
      10.0, 1.0, {{-1.0, 1.0}, {0.0, 0.0}, {2.0, 3.0}}, {0.0, 0.0}, {2.0, 2.0});
  // Query before the span: head ok, then cells 0 and 1 fit [-1, 1.5], cell
  // 2 violates -> quiet until its start.
  EXPECT_DOUBLE_EQ(index.bounded_until(-1.0, 1.5, 3.0), 12.0);
  // A band the first cell violates claims nothing.
  EXPECT_DOUBLE_EQ(index.bounded_until(-0.5, 0.5, 10.5), 10.5);
  // From inside the last cell with a wide band: the tail fits too ->
  // forever.
  EXPECT_TRUE(std::isinf(index.bounded_until(0.0, 3.0, 12.5)));
  // Past the span only the tail matters.
  EXPECT_TRUE(std::isinf(index.bounded_until(1.5, 2.5, 99.0)));
  EXPECT_DOUBLE_EQ(index.bounded_until(0.0, 1.0, 99.0), 99.0);
  // Inverted bands claim nothing.
  EXPECT_DOUBLE_EQ(index.bounded_until(1.0, 0.0, 3.0), 3.0);
  // An empty index is the all-zero signal.
  const trace::QuietSegmentIndex zero;
  EXPECT_TRUE(std::isinf(zero.bounded_until(0.0, 0.0, 5.0)));
}

TEST(QuietSegmentIndex, BoundaryQueriesNeverReturnSliverClaims) {
  // Cell 0 fits the band, cell 1 violates it: the claim boundary is 11 s.
  const trace::QuietSegmentIndex index(
      10.0, 1.0, {{0.0, 0.5}, {2.0, 3.0}}, {0.0, 0.0}, {0.0, 0.0});
  // A genuine claim from mid-cell runs to the violating cell's start.
  EXPECT_DOUBLE_EQ(index.bounded_until(-1.0, 1.0, 10.5), 11.0);
  // One ulp before the boundary the nominal claim end (11.0) exceeds t by
  // ~2e-15 — a "span" no simulation step fits inside. The sliver guard must
  // claim nothing rather than send the engine around its plan/fine-step
  // loop without advancing (the loud zero-progress check in the simulator
  // is the other half of this contract).
  const Seconds t_edge = std::nextafter(11.0, 0.0);
  EXPECT_DOUBLE_EQ(index.bounded_until(-1.0, 1.0, t_edge), t_edge);
  // Exactly at the boundary the home cell itself violates: nothing.
  EXPECT_DOUBLE_EQ(index.bounded_until(-1.0, 1.0, 11.0), 11.0);
  // Dense ladder across the boundary: every answer is either no-claim
  // (== t) or usably wide (> t by more than the guard's rounding margin) —
  // never a positive-but-unusable sliver.
  for (int k = -50; k <= 50; ++k) {
    const Seconds t = 11.0 + static_cast<double>(k) * 1e-13;
    const Seconds u = index.bounded_until(-1.0, 1.0, t);
    const Seconds margin = 1e-12 * std::abs(t);
    EXPECT_TRUE(u == t || u > t + margin) << "sliver claim at k=" << k;
  }
}

/// Samples the source densely over every span its bounded_until claims and
/// fails on any excursion outside the band — the one property the wind /
/// kinetic quiet hints rest on (the stochastic mirror of
/// expect_never_overclaims, one level down the driver stack).
void expect_band_never_overclaims(const trace::VoltageSource& source,
                                  Volts floor, Volts ceiling, Seconds horizon) {
  const int kQueries = 400;
  const int kSamplesPerSpan = 400;
  int claimed = 0;
  for (int q = 0; q < kQueries; ++q) {
    const Seconds t = horizon * static_cast<double>(q) / kQueries;
    const Seconds u = source.bounded_until(floor, ceiling, t);
    ASSERT_GE(u, t);
    if (u <= t) continue;
    ++claimed;
    const Seconds end = std::min(u, horizon + 2.0);
    for (int s = 0; s < kSamplesPerSpan; ++s) {
      const Seconds instant =
          t + (end - t) * (static_cast<double>(s) / kSamplesPerSpan);
      const Volts v = source.open_circuit_voltage(instant);
      ASSERT_GE(v, floor) << source.name() << " claimed [" << floor << ", "
                          << ceiling << "] at t=" << t << " until " << u
                          << " but reads " << v << " at " << instant;
      ASSERT_LE(v, ceiling) << source.name() << " claimed [" << floor << ", "
                            << ceiling << "] at t=" << t << " until " << u
                            << " but reads " << v << " at " << instant;
    }
  }
  EXPECT_GT(claimed, 0) << "the index never claimed a span for ["
                        << floor << ", " << ceiling << "]";
}

TEST(QuietSegmentIndex, WindTurbineNeverOverclaims) {
  trace::WindTurbineSource::Params params;
  params.peak_voltage = 5.0;
  params.peak_frequency = 6.0;
  for (const std::uint64_t seed : {3u, 11u, 42u}) {
    const trace::WindTurbineSource source(params, seed, 25.0);
    ASSERT_GT(source.quiet_index().cell_count(), 0u);
    // The rectifier's conduction bands at a dead node, a sleeping node and
    // a nearly-charged node (half-wave: floor is unbounded).
    const double inf = std::numeric_limits<double>::infinity();
    expect_band_never_overclaims(source, -inf, 0.25, 30.0);
    expect_band_never_overclaims(source, -inf, 2.3, 30.0);
    expect_band_never_overclaims(source, -3.0, 3.0, 30.0);  // full-wave style
  }
}

TEST(QuietSegmentIndex, KineticHarvesterNeverOverclaims) {
  trace::KineticHarvesterSource::Params params;
  for (const std::uint64_t seed : {3u, 11u}) {
    const trace::KineticHarvesterSource source(params, seed, 12.0);
    ASSERT_GT(source.quiet_index().cell_count(), 0u);
    const double inf = std::numeric_limits<double>::infinity();
    expect_band_never_overclaims(source, -inf, 0.25, 15.0);
    expect_band_never_overclaims(source, -1.0, 1.0, 15.0);
  }
}

TEST(QuietSegmentIndex, RecordedTraceAnswersArbitraryBands) {
  // A sine burst trace: the index must claim the sub-ceiling arcs inside
  // the burst, not just the zero gap — and never overclaim either.
  const auto wave = trace::Waveform::sample(
      [](Seconds t) {
        return t < 1.0 ? 3.3 * std::sin(2.0 * M_PI * 6.0 * t) : 0.0;
      },
      0.0, 3.0, 30001);
  const trace::WaveformVoltageSource source(wave, 50.0);
  const double inf = std::numeric_limits<double>::infinity();
  expect_band_never_overclaims(source, -inf, 2.5, 3.0);
  expect_band_never_overclaims(source, -inf, 0.25, 3.0);
  // Inside the burst, below-ceiling stretches must actually be claimed
  // (t = 0.09 sits past a positive peak... pick the negative half-cycle).
  const Seconds u = source.bounded_until(-inf, 0.25, 0.09);
  EXPECT_GT(u, 0.09);
}

/// Queries linear_until over a t x horizon lattice, densely samples the
/// true source over every certified window, and fails on any instant where
/// the deviation from the chord escapes the certified envelope — the
/// never-overclaim property every ramp span rests on (the interval mirror
/// of expect_band_never_overclaims). Horizons span the contractor's range:
/// sub-cell slivers through multi-cell runs.
void expect_cert_never_overclaims(const trace::VoltageSource& source,
                                  Seconds t_end) {
  const int kQueries = 240;
  const int kSamples = 160;
  int certified = 0;
  for (const Seconds horizon : {5e-4, 4e-3, 32e-3}) {
    for (int q = 0; q < kQueries; ++q) {
      const Seconds t = t_end * static_cast<double>(q) / kQueries;
      const trace::VoltageSource::LinearCert cert = source.linear_until(t, horizon);
      if (!cert.valid) continue;
      ASSERT_GT(cert.until, t) << "valid certificate with an empty window";
      ASSERT_LE(cert.until, t + horizon * (1.0 + 1e-12))
          << "certificate outruns the requested horizon";
      ASSERT_LE(cert.err_lo, 0.0);
      ASSERT_GE(cert.err_hi, 0.0);
      ++certified;
      // The contract is half-open [t, until): sample up to one ulp short.
      const Seconds end = std::nextafter(cert.until, t);
      for (int s = 0; s <= kSamples; ++s) {
        const Seconds offs = (end - t) * (static_cast<double>(s) / kSamples);
        const Volts truth = source.open_circuit_voltage(t + offs);
        const Volts chord = cert.value + cert.slope * offs;
        const Volts dev = truth - chord;
        const Volts slack = 1e-12 * (1.0 + std::abs(truth));
        ASSERT_GE(dev, cert.err_lo - slack)
            << source.name() << " escapes its envelope low side at t=" << t
            << " offs=" << offs << " (dev " << dev << " < " << cert.err_lo << ")";
        ASSERT_LE(dev, cert.err_hi + slack)
            << source.name() << " escapes its envelope high side at t=" << t
            << " offs=" << offs << " (dev " << dev << " > " << cert.err_hi << ")";
      }
    }
  }
  EXPECT_GT(certified, 0) << source.name() << " never certified a chord";
}

TEST(LinearCert, SineChordsNeverOverclaim) {
  expect_cert_never_overclaims(trace::SineVoltageSource(3.3, 6.0, 0.5), 1.0);
  expect_cert_never_overclaims(trace::SineVoltageSource(5.0, 20.0), 0.4);
  // A degenerate sine is DC: the exact constant certificate, zero envelope.
  const trace::SineVoltageSource dc(0.0, 6.0, 2.5);
  const auto flat = dc.linear_until(0.3, 1e-3);
  ASSERT_TRUE(flat.valid);
  EXPECT_DOUBLE_EQ(flat.slope, 0.0);
  EXPECT_DOUBLE_EQ(flat.err_lo, 0.0);
  EXPECT_DOUBLE_EQ(flat.err_hi, 0.0);
  EXPECT_DOUBLE_EQ(flat.value, 2.5);
}

TEST(LinearCert, WindChordsNeverOverclaimIncludingGustTails) {
  trace::WindTurbineSource::Params params;
  params.peak_voltage = 5.0;
  params.peak_frequency = 6.0;
  for (const std::uint64_t seed : {3u, 11u, 42u}) {
    // Query 2 s past the built horizon so the gust tails — decaying
    // envelopes beyond the last indexed cell — are exercised too.
    const trace::WindTurbineSource source(params, seed, 10.0);
    expect_cert_never_overclaims(source, 12.0);
  }
}

TEST(LinearCert, RecordedTraceChordsNeverOverclaim) {
  const auto wave = trace::Waveform::sample(
      [](Seconds t) {
        return t < 1.0 ? 3.3 * std::sin(2.0 * M_PI * 6.0 * t) : 0.0;
      },
      0.0, 3.0, 30001);
  expect_cert_never_overclaims(trace::WaveformVoltageSource(wave, 50.0), 3.0);
}

TEST(QuiescentUntil, RectifiedWindAndKineticNeverOverclaim) {
  // The full driver stack over the stochastic sources: quiescent_until
  // derives its band from the diode drop + node floor and must inherit the
  // index's conservativeness.
  trace::WindTurbineSource::Params wind;
  wind.peak_voltage = 5.0;
  wind.peak_frequency = 6.0;
  const trace::WindTurbineSource wind_source(wind, 3, 10.0);
  const circuit::RectifiedSourceDriver wind_driver(wind_source,
                                                   circuit::RectifierParams{});
  expect_never_overclaims(wind_driver, 0.0, 12.0);
  expect_never_overclaims(wind_driver, 2.0, 12.0);

  const trace::KineticHarvesterSource kinetic({}, 7, 8.0);
  const circuit::RectifiedSourceDriver kinetic_driver(kinetic,
                                                      circuit::RectifierParams{});
  expect_never_overclaims(kinetic_driver, 0.0, 10.0);
}

TEST(QuiescentUntil, TraceBackedSourcesNeverOverclaim) {
  const auto envelope = trace::Waveform::sample(
      [](Seconds t) {
        const double cycle = t - std::floor(t / 2.0) * 2.0;
        return cycle < 0.4 ? 3.0 : 0.0;
      },
      0.0, 8.0, 8001);
  const trace::WaveformVoltageSource vsource(envelope, 50.0);
  const circuit::RectifiedSourceDriver vdriver(vsource, circuit::RectifierParams{});
  expect_never_overclaims(vdriver, 0.0, 8.0);

  const trace::WaveformPowerSource psource(
      envelope.map([](double v) { return v * 1e-3; }));
  const circuit::HarvesterPowerDriver pdriver(psource, {});
  expect_never_overclaims(pdriver, 0.0, 8.0);
}

// ------------------------------------------------- macro vs fine runs -----

spec::SystemSpec square_brownout_spec() {
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 2.0, 0.3, 0.0, 50.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 5000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = 3;
  s.sim.t_end = 4.0;
  s.sim.stop_on_completion = false;  // exercise every brown-out tail
  return s;
}

spec::SystemSpec rf_duty_cycle_spec() {
  spec::SystemSpec s;
  trace::RfFieldSource::Params rf;
  rf.field_power = 2e-3;
  rf.burst_length = 0.4;
  rf.burst_period = 2.5;
  s.source = spec::RfFieldPower{rf, 11, 10.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 5000.0;
  s.workload.kind = "crc";
  s.workload.seed = 3;
  s.sim.t_end = 10.0;
  s.sim.stop_on_completion = false;
  return s;
}

spec::SystemSpec trace_source_spec() {
  // A recorded bursty open-circuit voltage with exact zero gaps.
  const auto wave = trace::Waveform::sample(
      [](Seconds t) {
        const double cycle = t - std::floor(t / 2.0) * 2.0;
        return cycle < 0.5 ? 3.3 : 0.0;
      },
      0.0, 6.0, 60001);
  spec::SystemSpec s;
  s.source = spec::VoltageTraceSource{wave, 50.0, "burst-trace"};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 8000.0;
  s.workload.kind = "crc";
  s.workload.seed = 5;
  s.sim.t_end = 6.0;
  s.sim.stop_on_completion = false;
  return s;
}

struct Pair {
  sim::SimResult fine;
  sim::SimResult macro;
};

Pair run_pair(spec::SystemSpec s) {
  s.sim.macro_stepping = false;
  auto fine_system = spec::instantiate(s);
  Pair pair;
  pair.fine = fine_system.run();
  s.sim.macro_stepping = true;
  auto macro_system = spec::instantiate(s);
  pair.macro = macro_system.run();
  return pair;
}

/// The documented macro-vs-fine agreement contract (see README
/// "Performance"): discrete event counts equal, times within a small
/// number of steps, energies within 1%, ledger closed.
void expect_agreement(const Pair& pair, Seconds dt, Farads c = 22e-6,
                      Seconds time_slack = 0.0, double energy_rel = 0.01) {
  if (time_slack <= 0.0) time_slack = 50.0 * dt;
  const auto& f = pair.fine;
  const auto& m = pair.macro;

  // Discrete events.
  EXPECT_EQ(f.mcu.boots, m.mcu.boots);
  EXPECT_EQ(f.mcu.brownouts, m.mcu.brownouts);
  EXPECT_EQ(f.mcu.saves_completed, m.mcu.saves_completed);
  EXPECT_EQ(f.mcu.restores, m.mcu.restores);
  EXPECT_EQ(f.mcu.completed, m.mcu.completed);

  // Wall-clock bookkeeping: the time split may shift by a few steps per
  // power cycle (or by the caller's slack when a governor quantizes).
  const Seconds slack =
      std::max(50.0 * dt, time_slack) *
      static_cast<double>(std::max<std::uint64_t>(f.mcu.brownouts + 1, 1));
  EXPECT_NEAR(f.end_time, m.end_time, dt);
  EXPECT_NEAR(f.mcu.time_off, m.mcu.time_off, slack);
  EXPECT_NEAR(f.mcu.time_active, m.mcu.time_active, slack);

  // Energies within 1% (the fine path's own discretisation scale) unless
  // the caller widened the band — a DFS governor turns sub-millivolt
  // trajectory differences into discrete frequency choices, so governed
  // scenarios legitimately spread further while the event sequence and the
  // workload result stay identical.
  const auto near_rel = [](double a, double b, double rel, double abs_floor) {
    EXPECT_NEAR(a, b, std::max(std::abs(b) * rel, abs_floor)) << a << " vs " << b;
  };
  near_rel(m.harvested, f.harvested, energy_rel, 1e-9);
  near_rel(m.consumed, f.consumed, energy_rel, 1e-9);
  near_rel(m.dissipated, f.dissipated, energy_rel, 1e-9);
  near_rel(m.mcu.energy_total(), f.mcu.energy_total(), energy_rel, 1e-9);

  // End state: voltages agree to millivolts.
  const auto to_volts = [](Joules stored, Farads cap) {
    return std::sqrt(std::max(2.0 * stored / cap, 0.0));
  };
  EXPECT_NEAR(to_volts(m.stored_final, c), to_volts(f.stored_final, c), 5e-3);

  // The ledger closes on both paths (macro spans close exactly by
  // construction, so the macro residual must not be worse).
  EXPECT_LT(std::abs(f.ledger_residual()), 1e-6 + 1e-6 * f.harvested);
  EXPECT_LT(std::abs(m.ledger_residual()), 1e-6 + 1e-6 * m.harvested);

  // Transition timelines: same state sequence, times within a few steps
  // (or the caller's slack — a DFS governor quantizes frequency, so
  // sub-millivolt span-boundary differences can shift a control window).
  ASSERT_EQ(f.transitions.size(), m.transitions.size());
  for (std::size_t i = 0; i < f.transitions.size(); ++i) {
    EXPECT_EQ(f.transitions[i].from, m.transitions[i].from) << "transition " << i;
    EXPECT_EQ(f.transitions[i].to, m.transitions[i].to) << "transition " << i;
    EXPECT_NEAR(f.transitions[i].time, m.transitions[i].time, time_slack)
        << "transition " << i;
  }
}

TEST(MacroStep, SquareSupplyBrownoutTailsAgree) {
  const auto pair = run_pair(square_brownout_spec());
  ASSERT_GT(pair.fine.mcu.brownouts, 2u);  // the scenario must brown out
  expect_agreement(pair, 10e-6);
}

TEST(MacroStep, RfDutyCycleAgrees) {
  const auto pair = run_pair(rf_duty_cycle_spec());
  ASSERT_GT(pair.fine.mcu.brownouts, 1u);
  expect_agreement(pair, 10e-6);
}

TEST(MacroStep, RecordedTraceAgrees) {
  const auto pair = run_pair(trace_source_spec());
  ASSERT_GT(pair.fine.mcu.brownouts, 1u);
  expect_agreement(pair, 10e-6);
}

TEST(MacroStep, GovernedRunStaysLockStep) {
  spec::SystemSpec s = square_brownout_spec();
  s.governor = neutral::McuDfsGovernor::Config{};
  const auto pair = run_pair(s);
  // The governed contract holds at the *default* 1% / 50-step band: with
  // interval-certified crossings every span provably ends outside the
  // watchers' error envelopes, so span-boundary voltages no longer flip
  // DFS frequency decisions (PR 5's ad-hoc 3%/5 ms escape is retired;
  // MacroStep.SpanBoundaryPerturbationKeepsDfsDecisions pins the
  // mechanism).
  expect_agreement(pair, 10e-6);
}

TEST(MacroStep, SpanBoundaryPerturbationKeepsDfsDecisions) {
  // The bug the 3% escape papered over: span-boundary voltages deviating
  // from the fine trajectory by well under a millivolt flipped discrete
  // DFS frequency choices at control instants near the dead-band edge.
  // With interval-certified crossings the macro path must now make the
  // *identical decision sequence*: the governed frequency trajectory,
  // sampled every control period and run-length encoded (so a decision is
  // compared by value and order, not by the +/- one-sample timing shift
  // the transition slack already allows), matches the fine path exactly.
  spec::SystemSpec s = square_brownout_spec();
  s.governor = neutral::McuDfsGovernor::Config{};
  s.sim.probe_interval = 1e-3;  // == the control period: every decision sampled
  const auto pair = run_pair(s);
  const auto* fine_f = pair.fine.probes.find("freq_mhz");
  const auto* macro_f = pair.macro.probes.find("freq_mhz");
  ASSERT_NE(fine_f, nullptr);
  ASSERT_NE(macro_f, nullptr);
  const auto decisions = [](const trace::Waveform& w) {
    std::vector<double> rle;
    for (double f : w.samples()) {
      if (rle.empty() || rle.back() != f) rle.push_back(f);
    }
    return rle;
  };
  const auto fine_rle = decisions(*fine_f);
  const auto macro_rle = decisions(*macro_f);
  // The scenario must actually exercise the quantizer, or the test proves
  // nothing: several distinct decisions across the brown-out cycles.
  ASSERT_GT(fine_rle.size(), 4u);
  EXPECT_EQ(fine_rle, macro_rle);
}

TEST(MacroStep, ProbeScheduleStaysLockStep) {
  spec::SystemSpec s = square_brownout_spec();
  s.sim.probe_interval = 1e-3;
  const auto pair = run_pair(s);
  const auto* fine_vcc = pair.fine.probes.find("vcc");
  const auto* macro_vcc = pair.macro.probes.find("vcc");
  ASSERT_NE(fine_vcc, nullptr);
  ASSERT_NE(macro_vcc, nullptr);
  // Lock-step schedule: exactly the same sample count and time base.
  ASSERT_EQ(fine_vcc->size(), macro_vcc->size());
  EXPECT_DOUBLE_EQ(fine_vcc->t0(), macro_vcc->t0());
  // Values track within tens of millivolts everywhere (the decay tails are
  // analytic vs Euler; the bursts are simulated identically up to span
  // boundary shifts).
  double worst = 0.0;
  for (std::size_t i = 0; i < fine_vcc->size(); ++i) {
    worst = std::max(worst,
                     std::abs(fine_vcc->samples()[i] - macro_vcc->samples()[i]));
  }
  EXPECT_LT(worst, 0.05);
  // The other channels stay lock-step too.
  EXPECT_EQ(pair.fine.probes.find("state")->size(),
            pair.macro.probes.find("state")->size());
}

TEST(MacroStep, CompletionDigestMatchesFinePath) {
  // The workload's result must be bit-identical: macro spans never touch
  // program state.
  spec::SystemSpec s = square_brownout_spec();
  s.sim.stop_on_completion = true;
  s.sim.t_end = 20.0;

  s.sim.macro_stepping = false;
  auto fine = spec::instantiate(s);
  const auto fine_result = fine.run();
  s.sim.macro_stepping = true;
  auto macro = spec::instantiate(s);
  const auto macro_result = macro.run();
  ASSERT_TRUE(fine_result.mcu.completed);
  ASSERT_TRUE(macro_result.mcu.completed);
  EXPECT_EQ(fine.program().result_digest(), macro.program().result_digest());
  EXPECT_NEAR(fine_result.mcu.completion_time, macro_result.mcu.completion_time,
              1e-3);
}

// --------------------------------------------- sleep-span macro tests -----
// The quiescent engine's new regime: the MCU asleep (or waiting/done) with
// live comparators, macro-stepped to the analytic comparator/v_min
// crossing. Hibernus on the Fig 7 / Fig 8 scenario classes is the paper's
// own exhibit for this.

/// Hibernus that records every comparator callback, so fine and macro runs
/// can be compared event for event (name, edge, interpolated time) — the
/// contract that sleep spans re-enter fine stepping before every crossing.
struct EventLog {
  std::vector<circuit::ComparatorEvent> events;
};

class RecordingHibernus final : public checkpoint::InterruptPolicy {
 public:
  RecordingHibernus(const Config& config, std::shared_ptr<EventLog> log)
      : InterruptPolicy(config, "recording-hibernus"), log_(std::move(log)) {}

  void on_comparator(mcu::Mcu& mcu, const circuit::ComparatorEvent& event) override {
    log_->events.push_back(event);
    InterruptPolicy::on_comparator(mcu, event);
  }

 private:
  std::shared_ptr<EventLog> log_;
};

/// The Fig 7 configuration with an event-recording hibernus attached.
spec::SystemSpec fig7_spec(const std::shared_ptr<EventLog>& log) {
  spec::SystemSpec s;
  s.source = spec::SineSource{3.3, 6.0};
  s.storage.capacitance = 47e-6;
  s.storage.bleed = 3000.0;
  s.workload.kind = "fft-large";
  s.workload.seed = 7;
  checkpoint::InterruptPolicy::Config config;
  config.margin = 2.2;
  config.restore_headroom = 0.35;
  s.policy = spec::CustomPolicy{
      [config, log](const std::function<Farads()>&, Farads node_capacitance) {
        checkpoint::InterruptPolicy::Config c = config;
        c.capacitance = node_capacitance;
        return std::make_unique<RecordingHibernus>(c, log);
      }};
  s.sim.t_end = 2.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// The Fig 7 system across harvesting gaps (the fig7_hibernus_fft --macro
/// survey, shortened): 0.5 s bursts of the 6 Hz sine every 5 s with
/// decay-to-zero intervals — save -> sleep -> brown-out -> dead node.
spec::SystemSpec fig7_gapped_spec(const std::shared_ptr<EventLog>& log) {
  auto s = fig7_spec(log);
  const auto wave = trace::Waveform::sample(
      [](Seconds t) {
        const double cycle = t - std::floor(t / 5.0) * 5.0;
        return cycle < 0.5 ? 3.3 * std::sin(2.0 * M_PI * 6.0 * t) : 0.0;
      },
      0.0, 10.0, 200001);
  s.source = spec::VoltageTraceSource{wave, 50.0, "fig7-gapped"};
  s.sim.t_end = 10.0;
  return s;
}

struct LoggedRun {
  sim::SimResult result;
  std::shared_ptr<EventLog> log;
};

LoggedRun run_logged(spec::SystemSpec (*make_spec)(const std::shared_ptr<EventLog>&),
                     bool macro) {
  LoggedRun run;
  run.log = std::make_shared<EventLog>();
  spec::SystemSpec s = make_spec(run.log);
  s.sim.macro_stepping = macro;
  auto system = spec::instantiate(s);
  run.result = system.run();
  return run;
}

void expect_identical_event_sequences(const EventLog& fine, const EventLog& macro,
                                      Seconds dt) {
  ASSERT_EQ(fine.events.size(), macro.events.size());
  for (std::size_t i = 0; i < fine.events.size(); ++i) {
    EXPECT_EQ(fine.events[i].name, macro.events[i].name) << "event " << i;
    EXPECT_EQ(fine.events[i].edge, macro.events[i].edge) << "event " << i;
    EXPECT_DOUBLE_EQ(fine.events[i].threshold, macro.events[i].threshold)
        << "event " << i;
    EXPECT_NEAR(fine.events[i].time, macro.events[i].time, 50.0 * dt)
        << "event " << i;
  }
}

TEST(SleepSpan, Fig7HibernusEventSequenceAndLedgerAgree) {
  const LoggedRun fine = run_logged(fig7_spec, false);
  const LoggedRun macro = run_logged(fig7_spec, true);
  // The scenario must actually exercise the sleep machinery.
  ASSERT_GT(fine.result.mcu.saves_completed, 0u);
  ASSERT_GT(fine.result.mcu.time_sleep, 0.0);
  ASSERT_GT(fine.log->events.size(), 4u);

  expect_identical_event_sequences(*fine.log, *macro.log, 10e-6);
  expect_agreement(Pair{fine.result, macro.result}, 10e-6, 47e-6);
  EXPECT_EQ(fine.result.mcu.direct_resumes, macro.result.mcu.direct_resumes);
  // The sleep ledger split must track, not just the totals.
  EXPECT_NEAR(fine.result.mcu.time_sleep, macro.result.mcu.time_sleep, 1e-3);
  EXPECT_NEAR(fine.result.mcu.energy_sleep, macro.result.mcu.energy_sleep,
              std::max(1e-9, 0.02 * fine.result.mcu.energy_sleep));
}

TEST(SleepSpan, Fig7HarvestingGapsEventSequenceAndLedgerAgree) {
  const LoggedRun fine = run_logged(fig7_gapped_spec, false);
  const LoggedRun macro = run_logged(fig7_gapped_spec, true);
  ASSERT_GT(fine.result.mcu.brownouts, 1u);
  ASSERT_GT(fine.log->events.size(), 4u);

  expect_identical_event_sequences(*fine.log, *macro.log, 10e-6);
  expect_agreement(Pair{fine.result, macro.result}, 10e-6, 47e-6);
  EXPECT_EQ(fine.result.mcu.restores, macro.result.mcu.restores);
  EXPECT_EQ(fine.result.nvm_commits, macro.result.nvm_commits);
}

/// A sleep-*dominated* scenario with analytic driver hints: a low-duty
/// square supply (exact edge arithmetic) on a big, lightly-bled node, so
/// each gap starts with a long comparator-watched sleep decay before the
/// v_min brown-out. This is the span class PR 3 could not touch.
spec::SystemSpec sleepy_square_spec() {
  spec::SystemSpec s;
  // 0.1 s bursts every 4 s: too short to finish the raytrace, so every gap
  // begins with a live workload hibernating through V_H.
  s.source = spec::SquareSource{3.3, 0.25, 0.025, 0.0, 50.0};
  s.storage.capacitance = 100e-6;
  s.storage.bleed = 10000.0;
  s.workload.kind = "raytrace";  // ~1.4 Mcycles: needs several bursts
  s.workload.seed = 3;
  checkpoint::InterruptPolicy::Config config;
  // Designer-pinned V_H well above v_min: the hibernate band 2.2 V ->
  // 1.8 V is then a ~0.2 s comparator-watched sleep decay per gap (Eq 4
  // would put V_H a hair above v_min on a 100 uF node and leave no band).
  config.v_hibernate = 2.2;
  config.restore_headroom = 0.4;
  s.policy = spec::Hibernus{config};
  s.sim.t_end = 16.0;
  s.sim.stop_on_completion = false;
  s.sim.probe_interval = 1e-3;
  return s;
}

TEST(SleepSpan, SleepDominatedSquareAgreesAndKeepsProbesLockStep) {
  const auto pair = run_pair(sleepy_square_spec());
  // The scenario must spend real time asleep with live comparators.
  ASSERT_GT(pair.fine.mcu.time_sleep, 0.05);
  ASSERT_GT(pair.fine.mcu.saves_completed, 0u);
  expect_agreement(pair, 10e-6, 100e-6);
  EXPECT_NEAR(pair.fine.mcu.time_sleep, pair.macro.mcu.time_sleep, 1e-3);

  const auto* fine_state = pair.fine.probes.find("state");
  const auto* macro_state = pair.macro.probes.find("state");
  ASSERT_NE(fine_state, nullptr);
  ASSERT_NE(macro_state, nullptr);
  ASSERT_EQ(fine_state->size(), macro_state->size());
  // The replayed probe schedule must report the same state trajectory up
  // to a handful of samples around span boundaries.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < fine_state->size(); ++i) {
    if (fine_state->samples()[i] != macro_state->samples()[i]) ++mismatches;
  }
  EXPECT_LT(mismatches, fine_state->size() / 100);
}

TEST(SleepSpan, GovernedSleepRunStaysLockStep) {
  // Governor deadlines cap sleep-class spans exactly like off spans. The
  // governed run finishes the workload early (DFS keeps it alive through
  // the gaps' heads) and then idles *done* through every gap — the done
  // spans must stay in lock-step with the governor's control schedule.
  spec::SystemSpec s = sleepy_square_spec();
  s.governor = neutral::McuDfsGovernor::Config{};
  const auto pair = run_pair(s);
  ASSERT_GT(pair.fine.mcu.time_done, 0.5);
  // Default 1% / 50-step band — governed runs get no widened escape (see
  // MacroStep.GovernedRunStaysLockStep).
  expect_agreement(pair, 10e-6, 100e-6);
  EXPECT_NEAR(pair.fine.mcu.time_done, pair.macro.mcu.time_done, 1e-2);
}

// --------------------------------------------- charge-span macro tests ----
// The charge-span planner: certified piecewise-constant driver windows
// jump MCU-off/wait/sleep/done charging ramps to the analytic power-on /
// rising-comparator crossing (circuit::AffineSolution).

/// The Fig 7 design point fed 50 ms DC bursts every 5 s (the charge-ramp
/// survey, shortened and with bursts too short to finish the FFT in one
/// go, so every burst end hibernates through a save): every burst is one
/// certified constant window, so boot ramps, wait-for-V_R ramps and the
/// parked equilibrium all become charge spans, separated by the usual
/// decay-to-zero gaps.
spec::SystemSpec charge_ramp_spec(const std::shared_ptr<EventLog>& log) {
  auto s = fig7_spec(log);
  s.source = spec::SquareSource{3.3, 0.2, 0.01, 0.0, 50.0};
  s.sim.t_end = 10.0;
  return s;
}

TEST(ChargeSpan, Fig7ChargeRampEventSequenceAndLedgerAgree) {
  const LoggedRun fine = run_logged(charge_ramp_spec, false);
  const LoggedRun macro = run_logged(charge_ramp_spec, true);
  // The scenario must exercise the full hibernate cycle across ramps.
  ASSERT_GT(fine.result.mcu.boots, 1u);
  ASSERT_GT(fine.result.mcu.saves_completed, 0u);
  ASSERT_GT(fine.log->events.size(), 4u);
  // The macro run must actually take charge spans (the whole point): with
  // bursts 0.5 s of every 5 s and all regimes analytic, the fine-stepped
  // remainder must be a small fraction of the horizon.
  EXPECT_GT(macro.result.span_steps, 4 * macro.result.fine_steps);

  expect_identical_event_sequences(*fine.log, *macro.log, 10e-6);
  expect_agreement(Pair{fine.result, macro.result}, 10e-6, 47e-6);
  EXPECT_EQ(fine.result.mcu.restores, macro.result.mcu.restores);
  EXPECT_EQ(fine.result.nvm_commits, macro.result.nvm_commits);
  // Charge spans book real harvested energy; the ledger must still close.
  ASSERT_GT(macro.result.harvested, 0.0);
}

// ----------------------------------------------- wind-survey macro tests --
// The stochastic quiet-segment index: Fig 8-class scenarios where the
// seeded wind/kinetic sample paths publish conservative per-cell bounds.

/// The Fig 8 design point (ungoverned): one gust over 6 s plus the start
/// of the tail, with an event-recording hibernus attached.
spec::SystemSpec fig8_wind_spec(const std::shared_ptr<EventLog>& log) {
  spec::SystemSpec s = fig7_spec(log);  // reuse the recording policy wiring
  trace::WindTurbineSource::Params wind;
  wind.peak_voltage = 5.0;
  wind.peak_frequency = 6.0;
  s.source = spec::WindSource{wind, 3, 8.0};
  s.storage.bleed = 10000.0;
  s.workload.kind = "crc";
  s.workload.seed = 9;
  s.sim.t_end = 8.0;
  return s;
}

TEST(WindSpan, Fig8WindEventSequenceAndLedgerAgree) {
  const LoggedRun fine = run_logged(fig8_wind_spec, false);
  const LoggedRun macro = run_logged(fig8_wind_spec, true);
  ASSERT_GT(fine.result.mcu.boots, 0u);
  ASSERT_GT(fine.log->events.size(), 2u);
  // The quiet-segment index must light the engine up on the wind source
  // (this sat at zero span steps before the index existed).
  EXPECT_GT(macro.result.span_steps, macro.result.fine_steps);

  expect_identical_event_sequences(*fine.log, *macro.log, 10e-6);
  expect_agreement(Pair{fine.result, macro.result}, 10e-6, 47e-6);
  EXPECT_EQ(fine.result.mcu.brownouts, macro.result.mcu.brownouts);
}

TEST(WindSpan, KineticHarvesterAgrees) {
  auto make_spec = [](const std::shared_ptr<EventLog>& log) {
    spec::SystemSpec s = fig7_spec(log);
    trace::KineticHarvesterSource::Params kinetic;
    s.source = spec::KineticSource{kinetic, 11, 6.0};
    s.storage.bleed = 10000.0;
    s.workload.kind = "crc";
    s.workload.seed = 5;
    s.sim.t_end = 6.0;
    return s;
  };
  const auto pair = [&] {
    spec::SystemSpec s = make_spec(std::make_shared<EventLog>());
    return run_pair(s);
  }();
  expect_agreement(pair, 10e-6, 47e-6);
  // The ring-down tails between steps must be claimed.
  EXPECT_GT(pair.macro.span_steps, 0u);
}

TEST(SleepSpan, FlagOffSleepScenarioStaysBitIdentical) {
  // With macro_stepping off, a sleep-heavy run must stay bit-identical
  // whether the (default-on) quiescent fast path is enabled or not — the
  // engine's dead-node skip is the only active regime and it is exact.
  auto run_with_fast_path = [](bool enabled) {
    spec::SystemSpec s = sleepy_square_spec();
    s.sim.quiescent_fast_path = enabled;
    auto system = spec::instantiate(s);
    return system.run();
  };
  const auto fast = run_with_fast_path(true);
  const auto slow = run_with_fast_path(false);
  EXPECT_EQ(fast.end_time, slow.end_time);
  EXPECT_EQ(fast.harvested, slow.harvested);
  EXPECT_EQ(fast.consumed, slow.consumed);
  EXPECT_EQ(fast.dissipated, slow.dissipated);
  EXPECT_EQ(fast.stored_final, slow.stored_final);
  EXPECT_EQ(fast.mcu.time_off, slow.mcu.time_off);
  EXPECT_EQ(fast.mcu.time_sleep, slow.mcu.time_sleep);
  EXPECT_EQ(fast.mcu.energy_sleep, slow.mcu.energy_sleep);
  EXPECT_EQ(fast.mcu.boots, slow.mcu.boots);
  EXPECT_EQ(fast.mcu.saves_completed, slow.mcu.saves_completed);
  const auto* fast_vcc = fast.probes.find("vcc");
  const auto* slow_vcc = slow.probes.find("vcc");
  ASSERT_NE(fast_vcc, nullptr);
  ASSERT_NE(slow_vcc, nullptr);
  EXPECT_EQ(fast_vcc->samples(), slow_vcc->samples());
}

TEST(MacroStep, FlagOffStaysBitIdenticalWithHintedFastPath) {
  // The quiescent fast path now consults driver hints (one virtual call
  // per dead span instead of one per substep), which must not change a
  // single bit while macro_stepping is off. Complements the RF-source
  // regression in sim_test.cpp with the square-voltage hint path.
  auto run_with_fast_path = [](bool enabled) {
    spec::SystemSpec s;
    s.source = spec::SquareSource{3.3, 0.5, 0.2, 0.0, 50.0};
    s.storage.capacitance = 22e-6;
    s.storage.bleed = 1000.0;  // fast decay: the node reaches exactly 0 V
    s.workload.kind = "crc";
    s.workload.seed = 3;
    s.sim.t_end = 6.0;
    s.sim.stop_on_completion = false;
    s.sim.probe_interval = 1e-3;
    s.sim.quiescent_fast_path = enabled;
    auto system = spec::instantiate(s);
    return system.run();
  };
  const auto fast = run_with_fast_path(true);
  const auto slow = run_with_fast_path(false);
  EXPECT_EQ(fast.end_time, slow.end_time);
  EXPECT_EQ(fast.harvested, slow.harvested);
  EXPECT_EQ(fast.consumed, slow.consumed);
  EXPECT_EQ(fast.dissipated, slow.dissipated);
  EXPECT_EQ(fast.stored_final, slow.stored_final);
  EXPECT_EQ(fast.mcu.time_off, slow.mcu.time_off);
  EXPECT_EQ(fast.mcu.boots, slow.mcu.boots);
  const auto* fast_vcc = fast.probes.find("vcc");
  const auto* slow_vcc = slow.probes.find("vcc");
  ASSERT_NE(fast_vcc, nullptr);
  ASSERT_NE(slow_vcc, nullptr);
  EXPECT_EQ(fast_vcc->samples(), slow_vcc->samples());
}

}  // namespace
