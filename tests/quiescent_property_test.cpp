// Seeded property tests for the quiescent engine's core:
//
//   * the closed form circuit::AffineSolution against fine numeric (RK4)
//     integration of C dV/dt = a + b*t - G*V over generated (C, G, a, b,
//     v0): unbled ramps (G = 0), monotone rises and decays (b = 0, with
//     and without the ground clamp) and overshooting chords (b != 0) —
//     voltage, inverse, min/max, line margin and both energy integrals;
//   * the crossing rule (circuit::first_fire via
//     ComparatorBank::plan_crossing, plus the v_on / v_min level watchers)
//     against dense sampling: no watcher may be able to fire before the
//     planned time, and with pad = 0 on a monotone trajectory the rule
//     picks exactly the trip and time of the monotone falling/rising rule.
//
// ctest runs the fixed seed list below. Longer local runs:
//   EDC_PROPERTY_SEED=<n>        run seed n only
//   EDC_PROPERTY_ITERATIONS=<k>  cases per seed (default 40)
// A failing case prints its parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "edc/circuit/comparator.h"
#include "edc/circuit/supply_node.h"

namespace {

using namespace edc;
using circuit::AffineSolution;

constexpr Seconds kForever = std::numeric_limits<Seconds>::infinity();

std::vector<std::uint64_t> seeds() {
  if (const char* seed = std::getenv("EDC_PROPERTY_SEED")) {
    return {std::stoull(seed)};
  }
  return {1, 2, 3, 5, 8, 13};
}

int iterations() {
  const char* n = std::getenv("EDC_PROPERTY_ITERATIONS");
  return n != nullptr ? std::stoi(n) : 40;
}

/// One generated trajectory C dV/dt = a + b*t - G*V from v0, observed over
/// [0, horizon].
struct Case {
  Farads c = 0.0;
  double g = 0.0;
  Amps a = 0.0;
  double b = 0.0;
  Volts v0 = 0.0;
  Seconds horizon = 0.0;

  [[nodiscard]] AffineSolution solution() const { return AffineSolution(c, a, b, g, v0); }

  /// Whether the b = 0 trajectory heads down (toward a lower asymptote, or
  /// down a G = 0 ramp).
  [[nodiscard]] bool heads_down() const { return g > 0.0 ? a / g < v0 : a < 0.0; }

  [[nodiscard]] std::string describe() const {
    std::ostringstream out;
    out.precision(17);
    out << "C=" << c << " G=" << g << " a=" << a << " b=" << b << " v0=" << v0
        << " horizon=" << horizon;
    return out.str();
  }
};

double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::exp(std::uniform_real_distribution<double>(std::log(lo), std::log(hi))(rng));
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// Cycles through the four regimes: G = 0 ramps, b = 0 rises, b = 0
/// decays (some reaching ground), and b != 0 chords (some overshooting).
/// Chords are redrawn until they stay above ground — the closed form only
/// models the clamp with b = 0, and planners certify that margin.
Case generate(std::mt19937_64& rng, int index) {
  Case k;
  k.c = log_uniform(rng, 1e-6, 1e-3);
  k.v0 = uniform(rng, 0.0, 3.5);
  switch (index % 4) {
    case 0: {  // unbled decay: a straight ramp down to ground and beyond
      k.a = -log_uniform(rng, 1e-8, 1e-3);
      const Seconds to_ground = k.c * k.v0 / -k.a;
      k.horizon = to_ground > 0.0 ? uniform(rng, 0.3, 1.6) * to_ground
                                  : log_uniform(rng, 1e-4, 1.0);
      return k;
    }
    case 1:
    case 2: {  // monotone rise toward / decay toward (possibly below ground)
      k.g = log_uniform(rng, 1e-5, 1e-1);
      const Volts asymptote = index % 4 == 1 ? uniform(rng, k.v0, 5.0)
                                             : uniform(rng, -2.0, k.v0);
      k.a = asymptote * k.g;
      k.horizon = uniform(rng, 0.2, 4.0) * k.c / k.g;
      return k;
    }
    default: {  // affine chord: the transient may overshoot the ramp
      k.g = log_uniform(rng, 1e-4, 1e-1);
      const Seconds tau = k.c / k.g;
      k.horizon = uniform(rng, 0.5, 4.0) * tau;
      for (;;) {
        k.v0 = uniform(rng, 0.2, 3.5);
        k.a = uniform(rng, 0.0, 4.0) * k.g;
        // A source ramp worth up to +/-3 V over the window.
        k.b = uniform(rng, -3.0, 3.0) / k.horizon * k.g;
        if (k.solution().min_voltage(k.horizon) > 0.05) return k;
      }
    }
  }
}

/// RK4 reference on a fine grid: the (ground-clamped) trajectory samples
/// plus trapezoid integrals of V and V^2.
struct Reference {
  std::vector<double> t, v;
  double integral = 0.0, square_integral = 0.0;
  bool clamped = false;
};

Reference integrate(const Case& k, int steps) {
  Reference ref;
  const double h = k.horizon / steps;
  const auto f = [&](double t, double v) { return (k.a + k.b * t - k.g * v) / k.c; };
  double v = k.v0;
  ref.t.push_back(0.0);
  ref.v.push_back(v);
  for (int i = 0; i < steps; ++i) {
    const double t = h * i;
    const double k1 = f(t, v);
    const double k2 = f(t + 0.5 * h, v + 0.5 * h * k1);
    const double k3 = f(t + 0.5 * h, v + 0.5 * h * k2);
    const double k4 = f(t + h, v + h * k3);
    double next = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    if (next < 0.0) {
      // The node clamps at ground; the b = 0 drive then stays <= 0.
      const double frac = v / (v - next);  // linear ground-touch instant
      ref.integral += 0.5 * v * h * frac;
      ref.square_integral += v * v * h * frac / 3.0;
      next = 0.0;
      ref.clamped = true;
    } else {
      ref.integral += 0.5 * (v + next) * h;
      ref.square_integral += (v * v + v * next + next * next) * h / 3.0;
    }
    v = next;
    ref.t.push_back(h * (i + 1));
    ref.v.push_back(v);
  }
  return ref;
}

TEST(AffineSolutionProperty, AgreesWithFineNumericIntegration) {
  constexpr int kSteps = 20000;
  for (const std::uint64_t seed : seeds()) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < iterations(); ++i) {
      const Case k = generate(rng, i);
      SCOPED_TRACE("seed " + std::to_string(seed) + " case " + std::to_string(i) + ": " +
                   k.describe());
      const AffineSolution s = k.solution();
      const Reference ref = integrate(k, kSteps);
      const double scale = std::max({1.0, k.v0, *std::max_element(ref.v.begin(), ref.v.end())});

      for (std::size_t j = 0; j < ref.t.size(); j += kSteps / 20) {
        ASSERT_NEAR(s.voltage_at(ref.t[j]), ref.v[j], 1e-8 * scale) << "at t=" << ref.t[j];
      }
      const double v_scale = scale * k.horizon;
      EXPECT_NEAR(s.integral(k.horizon), ref.integral, 1e-6 * v_scale);
      EXPECT_NEAR(s.square_integral(k.horizon), ref.square_integral, 1e-6 * v_scale * scale);

      // Extrema and the margin below a random line are defined on the
      // unclamped trajectory, so compare them where the clamp never acted.
      if (!ref.clamped) {
        const Volts line0 = uniform(rng, 0.0, 5.0);
        const double slope = uniform(rng, -2.0, 2.0) / k.horizon;
        Volts lo = kForever, hi = -kForever, margin = kForever;
        for (std::size_t j = 0; j < ref.t.size(); ++j) {
          lo = std::min(lo, ref.v[j]);
          hi = std::max(hi, ref.v[j]);
          margin = std::min(margin, line0 + slope * ref.t[j] - ref.v[j]);
        }
        EXPECT_NEAR(s.min_voltage(k.horizon), lo, 1e-7 * scale);
        EXPECT_NEAR(s.max_voltage(k.horizon), hi, 1e-7 * scale);
        EXPECT_NEAR(s.min_margin_below(line0, slope, k.horizon), margin, 1e-7 * scale);
      }

      // Inverse: first passage to random levels across (and past) the range.
      const double h = k.horizon / kSteps;
      for (int q = 0; q < 6; ++q) {
        const Volts level = uniform(rng, -0.2, scale + 0.2);
        Seconds numeric = kForever;  // first sample at or past the level
        for (std::size_t j = 0; j < ref.t.size(); ++j) {
          if (k.v0 > level ? ref.v[j] <= level : ref.v[j] >= level) {
            numeric = ref.t[j];
            break;
          }
        }
        const Seconds analytic = s.time_to_reach(level, k.horizon);
        SCOPED_TRACE("level " + std::to_string(level));
        if (analytic <= k.horizon) {
          ASSERT_LE(analytic, numeric + 1e-9 * k.horizon) << "reported after the crossing";
          EXPECT_GE(analytic, numeric - h - 2e-6 * k.horizon) << "reported long before it";
          EXPECT_NEAR(s.voltage_at(analytic), std::max(level, 0.0), 1e-5 * scale);
        } else {
          // Not reached within the window (a b = 0 answer may lie beyond it).
          EXPECT_TRUE(numeric >= k.horizon - h || std::isinf(numeric))
              << "missed a crossing at " << numeric;
        }
      }
    }
  }
}

/// A generated watcher set: comparators in random output states plus the
/// MCU's two level watchers.
struct Watchers {
  circuit::ComparatorBank bank;
  Volts v_on = 0.0;
  Volts v_min = 0.0;
};

Watchers generate_watchers(std::mt19937_64& rng) {
  Watchers w;
  const int n = std::uniform_int_distribution<int>(1, 4)(rng);
  for (int c = 0; c < n; ++c) {
    const Volts threshold = uniform(rng, 0.05, 4.0);
    const Volts hysteresis = uniform(rng, 0.0, 0.2);
    circuit::Comparator comparator("C" + std::to_string(c), threshold, hysteresis);
    // Reset against an unrelated voltage: armed and latched outputs alike.
    comparator.reset(uniform(rng, 0.0, 4.5));
    w.bank.add(comparator);
  }
  w.v_on = uniform(rng, 0.5, 4.0);
  w.v_min = uniform(rng, 0.2, w.v_on);
  return w;
}

/// First instant (on `t`) at which a watcher could fire while the true
/// voltage stays within `pad` of the sampled model `v` (V(0) = v0 exactly),
/// +infinity when none of the samples allow it. Edge triggers need a
/// sample on their armed side first.
Seconds first_possible_fire(const std::vector<double>& t, const std::vector<double>& v,
                            Volts trip, circuit::Trigger trigger, Volts pad) {
  constexpr Volts kTol = 1e-12;  // keep rounding at the boundary out
  const bool down =
      trigger == circuit::Trigger::falling_edge || trigger == circuit::Trigger::below;
  const bool edge =
      trigger == circuit::Trigger::falling_edge || trigger == circuit::Trigger::rising_edge;
  bool armed = !edge || (down ? v[0] > trip : v[0] < trip);
  for (std::size_t j = 1; j < t.size(); ++j) {
    if (edge && !armed) armed = down ? v[j] > trip - pad + kTol : v[j] < trip + pad - kTol;
    const bool fired = down ? v[j] <= trip + pad - kTol : v[j] >= trip - pad + kTol;
    if (armed && fired) return t[j];
  }
  return kForever;
}

TEST(CrossingRuleProperty, NeverOverclaimsAndMatchesTheMonotoneRule) {
  constexpr int kSamples = 40000;
  for (const std::uint64_t seed : seeds()) {
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < iterations(); ++i) {
      const Case k = generate(rng, i);
      const AffineSolution s = k.solution();
      const Watchers w = generate_watchers(rng);
      const Volts pad = i % 3 == 0 ? 0.0 : log_uniform(rng, 1e-5, 2e-2);
      std::ostringstream trips;
      for (std::size_t c = 0; c < w.bank.size(); ++c) {
        const auto& comparator = w.bank.at(c);
        trips << " [" << comparator.falling_trip() << "," << comparator.rising_trip()
              << (comparator.output() ? " high]" : " low]");
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " case " + std::to_string(i) + ": " +
                   k.describe() + " pad=" + std::to_string(pad) + " v_on=" +
                   std::to_string(w.v_on) + " v_min=" + std::to_string(w.v_min) + trips.str());

      std::vector<double> t(kSamples + 1), v(kSamples + 1);
      for (int j = 0; j <= kSamples; ++j) {
        t[j] = k.horizon * j / kSamples;
        v[j] = s.voltage_at(t[j]);
      }
      const circuit::Crossing crossing = w.bank.plan_crossing(s, pad, k.horizon);
      for (std::size_t c = 0; c < w.bank.size(); ++c) {
        const auto& comparator = w.bank.at(c);
        const bool high = comparator.output();
        const Volts trip = high ? comparator.falling_trip() : comparator.rising_trip();
        const Seconds possible = first_possible_fire(
            t, v, trip, high ? circuit::Trigger::falling_edge : circuit::Trigger::rising_edge,
            pad);
        EXPECT_LE(crossing.time, possible) << "comparator " << c << " can fire earlier";
      }
      for (const auto& [trip, trigger] :
           {std::pair{w.v_on, circuit::Trigger::at_or_above},
            std::pair{w.v_min, circuit::Trigger::below}}) {
        EXPECT_LE(circuit::first_fire(s, trip, trigger, pad, k.horizon),
                  first_possible_fire(t, v, trip, trigger, pad))
            << "level watcher at " << trip << " can fire earlier";
      }

      // Exact monotone trajectories: the rule reduces to the monotone
      // planners — on a decay the highest armed falling trip below v0, on
      // a rise the lowest armed rising trip above it.
      if (pad == 0.0 && s.monotone()) {
        Volts best = k.heads_down() ? -1.0 : kForever;
        for (std::size_t c = 0; c < w.bank.size(); ++c) {
          const auto& comparator = w.bank.at(c);
          if (k.heads_down() && comparator.output()) {
            const Volts trip = comparator.falling_trip();
            if (trip >= 0.0 && trip < k.v0) best = std::max(best, trip);
          } else if (!k.heads_down() && !comparator.output()) {
            const Volts trip = comparator.rising_trip();
            if (trip > k.v0) best = std::min(best, trip);
          }
        }
        const bool any = k.heads_down() ? best >= 0.0 : std::isfinite(best);
        const Seconds expected = any ? s.time_to_reach(best) : kForever;
        EXPECT_EQ(crossing.time, expected);
        if (std::isfinite(expected)) {
          EXPECT_EQ(crossing.trip, best);
        }
      }
    }
  }
}

}  // namespace
