#include "edc/circuit/supply_node.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "edc/common/check.h"

namespace edc::circuit {

namespace {
constexpr Seconds kForever = std::numeric_limits<Seconds>::infinity();
}  // namespace

AffineSolution::AffineSolution(Farads capacitance, Amps a, double b, double g,
                               Volts v0)
    : v0_(v0), b_(b) {
  EDC_ASSERT(capacitance > 0.0 && g >= 0.0 && v0 >= 0.0);
  EDC_ASSERT(g > 0.0 || b == 0.0);
  if (g > 0.0) {
    tau_ = capacitance / g;
    beta_ = b / g;
    alpha_ = (a - capacitance * beta_) / g;
    c_ = v0 - alpha_;
  } else {
    // No conductance: a straight ramp, written as the affine part alone.
    alpha_ = v0;
    beta_ = a / capacitance;
  }
}

Volts AffineSolution::raw(Seconds t) const {
  return alpha_ + beta_ * t + c_ * std::exp(-t / tau_);
}

Volts AffineSolution::voltage_at(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Volts v = raw(elapsed);
  return v > 0.0 ? v : 0.0;
}

Seconds AffineSolution::time_to_reach(Volts v, Seconds t_max) const {
  if (v == v0_) return 0.0;
  if (v < 0.0) return kForever;  // the node clamps at ground
  if (b_ == 0.0) {
    if (c_ == 0.0) {  // a straight ramp, or a constant
      if (beta_ == 0.0) return kForever;
      const Seconds t = (v - v0_) / beta_;
      return t > 0.0 ? t : kForever;
    }
    // Monotone toward alpha: only levels strictly between v0 and alpha are
    // ever reached, and there both differences share a sign, so the
    // logarithm's argument is > 1.
    const bool between = v0_ < alpha_ ? (v0_ < v && v < alpha_)
                                      : (alpha_ < v && v < v0_);
    return between ? tau_ * std::log((alpha_ - v0_) / (alpha_ - v)) : kForever;
  }
  EDC_ASSERT(t_max >= 0.0 && std::isfinite(t_max));
  // V'(t) = beta - (c/tau) e^{-t/tau} is monotone, so the trajectory has at
  // most one interior extremum, at t* = -tau ln(beta*tau/c) when the log
  // argument lies in (0, 1]. Split the window there into monotone pieces.
  Seconds pieces[3] = {0.0, t_max, t_max};
  int n_pieces = 1;
  if (c_ != 0.0) {
    const double arg = beta_ * tau_ / c_;
    if (arg > 0.0 && arg <= 1.0) {
      const Seconds t_star = -tau_ * std::log(arg);
      if (t_star > 0.0 && t_star < t_max) {
        pieces[1] = t_star;
        n_pieces = 2;
      }
    }
  }
  for (int p = 0; p < n_pieces; ++p) {
    Seconds lo = pieces[p];
    Seconds hi = pieces[p + 1];
    const Volts v_lo = raw(lo);
    const Volts v_hi = raw(hi);
    if (v == v_lo) return lo;
    const bool rising = v_hi >= v_lo;
    const bool inside = rising ? (v_lo < v && v <= v_hi)
                               : (v_hi <= v && v < v_lo);
    if (!inside) continue;
    // Safeguarded bisection on the monotone piece. Returning the lower
    // bracket keeps the reported instant at or before the true crossing, so
    // a span capped at ceil(time/dt)-1 provably ends before the crossing
    // step however loose the bracket is. That soundness-by-direction lets
    // the loop stop at ~1e-6 of the piece width instead of grinding to one
    // ulp: each iteration costs an exp(), and this is the hot inner call
    // of chord-span crossing planning.
    const Seconds width_tol = (hi - lo) * 9.5e-7 + 1e-15;
    for (int i = 0; i < 64 && hi - lo > width_tol; ++i) {
      const Seconds mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      const bool before = rising ? (raw(mid) < v) : (raw(mid) > v);
      if (before) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  return kForever;
}

AffineSolution::Range AffineSolution::deviation_range(Volts line0, double slope,
                                                      Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  // D(t) = V(t) - line(t) = (alpha - line0) + (beta - slope) t + c e^{-t/tau}
  // has a monotone derivative, so its extrema sit at the endpoints or at
  // the single critical point e^{-t/tau} = (beta - slope) tau / c.
  const Volts d0 = v0_ - line0;
  const Volts d1 = raw(elapsed) - (line0 + slope * elapsed);
  Range range{std::min(d0, d1), std::max(d0, d1)};
  if (c_ != 0.0 && beta_ != slope) {
    const double arg = (beta_ - slope) * tau_ / c_;
    if (arg > 0.0 && arg <= 1.0) {
      const Seconds t_crit = -tau_ * std::log(arg);
      if (t_crit > 0.0 && t_crit < elapsed) {
        const Volts d = raw(t_crit) - (line0 + slope * t_crit);
        range.lo = std::min(range.lo, d);
        range.hi = std::max(range.hi, d);
      }
    }
  }
  return range;
}

Volts AffineSolution::min_voltage(Seconds elapsed) const {
  return deviation_range(0.0, 0.0, elapsed).lo;
}

Volts AffineSolution::max_voltage(Seconds elapsed) const {
  return deviation_range(0.0, 0.0, elapsed).hi;
}

Volts AffineSolution::min_margin_below(Volts line0, double slope,
                                       Seconds elapsed) const {
  return -deviation_range(line0, slope, elapsed).hi;
}

Seconds AffineSolution::ground_time() const {
  if (b_ != 0.0) return kForever;
  if (c_ == 0.0) return beta_ < 0.0 ? -v0_ / beta_ : kForever;
  // Exponential toward alpha: ground is reached only when alpha < 0.
  return alpha_ < 0.0 ? tau_ * std::log1p(-v0_ / alpha_) : kForever;
}

double AffineSolution::integral(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Seconds s = std::min(elapsed, ground_time());
  const double transient = c_ == 0.0 ? 0.0 : c_ * tau_ * -std::expm1(-s / tau_);
  return alpha_ * s + 0.5 * beta_ * s * s + transient;
}

double AffineSolution::square_integral(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Seconds s = std::min(elapsed, ground_time());
  // integral of (alpha + beta t)^2, then the cross and transient terms.
  double sq = alpha_ * alpha_ * s + alpha_ * beta_ * s * s +
              beta_ * beta_ * s * s * s / 3.0;
  if (c_ != 0.0) {
    const double e1 = -std::expm1(-s / tau_);        // 1 - e^{-s/tau}
    const double e2 = -std::expm1(-2.0 * s / tau_);  // 1 - e^{-2s/tau}
    // integral of t e^{-t/tau} over [0, s].
    const double t_exp = tau_ * tau_ * e1 - tau_ * s * std::exp(-s / tau_);
    sq += 2.0 * c_ * (alpha_ * tau_ * e1 + beta_ * t_exp) + c_ * c_ * 0.5 * tau_ * e2;
  }
  return sq;
}

SupplyNode::SupplyNode(Farads capacitance, Volts v_initial)
    : capacitance_(capacitance), voltage_(v_initial) {
  EDC_CHECK(capacitance > 0.0, "capacitance must be positive");
  EDC_CHECK(v_initial >= 0.0, "initial voltage must be non-negative");
}

SupplyNode::StepEnergy SupplyNode::step(Seconds t, Seconds dt,
                                        const SupplyDriver& driver, const Load& load,
                                        int substeps) {
  EDC_CHECK(dt > 0.0, "dt must be positive");
  EDC_CHECK(substeps >= 1, "need at least one substep");
  StepEnergy energy;
  const Seconds h = dt / static_cast<double>(substeps);
  for (int i = 0; i < substeps; ++i) {
    const Seconds t_sub = t + h * static_cast<double>(i);
    const Amps i_in = driver.current_into(voltage_, t_sub);
    const Amps i_out = load.current_draw(voltage_, t_sub);
    const Amps i_bleed = bleed_ > 0.0 ? voltage_ / bleed_ : 0.0;
    EDC_ASSERT(i_in >= 0.0 && i_out >= 0.0);
    Volts v_next = voltage_ + (i_in - i_out - i_bleed) / capacitance_ * h;
    v_next = std::max(v_next, 0.0);  // node cannot go below ground
    // Energy delivered/drawn during the substep, evaluated at the mean
    // voltage so the ledger balances with the 0.5*C*V^2 stored energy.
    const Volts v_mid = 0.5 * (voltage_ + v_next);
    energy.harvested += i_in * v_mid * h;
    energy.consumed += i_out * v_mid * h;
    energy.dissipated += i_bleed * v_mid * h;
    voltage_ = v_next;
  }
  return energy;
}

void SupplyNode::step_lanes(Seconds t, Seconds dt, const SupplyDriver& driver,
                            int substeps, const SoaLanes& lanes) {
  EDC_CHECK(dt > 0.0, "dt must be positive");
  EDC_CHECK(substeps >= 1, "need at least one substep");
  const std::size_t n = lanes.count;
  double* v = lanes.v;
  const double* cap = lanes.capacitance;
  const double* bleed = lanes.bleed;
  const double* i_load = lanes.i_load;
  double* harvested = lanes.harvested;
  double* consumed = lanes.consumed;
  double* dissipated = lanes.dissipated;
  for (std::size_t l = 0; l < n; ++l) {
    harvested[l] = 0.0;
    consumed[l] = 0.0;
    dissipated[l] = 0.0;
  }

  const Seconds h = dt / static_cast<double>(substeps);
  // One substep over all lanes with the injected current supplied by
  // `i_in_of(v_lane)`. The body is the scalar step() substep verbatim —
  // same expression structure, same evaluation order — so each lane's
  // trajectory and energy split match the scalar path bit-for-bit. Each
  // lane is a pure element-wise recurrence, so the loop vectorizes.
  const auto run_lanes = [&](auto i_in_of) {
#pragma omp simd
    for (std::size_t l = 0; l < n; ++l) {
      const double v_lane = v[l];
      const double i_in = i_in_of(v_lane);
      const double i_out = i_load[l];
      const double i_bleed = bleed[l] > 0.0 ? v_lane / bleed[l] : 0.0;
      double v_next = v_lane + (i_in - i_out - i_bleed) / cap[l] * h;
      v_next = std::max(v_next, 0.0);  // node cannot go below ground
      const double v_mid = 0.5 * (v_lane + v_next);
      harvested[l] += i_in * v_mid * h;
      consumed[l] += i_out * v_mid * h;
      dissipated[l] += i_bleed * v_mid * h;
      v[l] = v_next;
    }
  };
  for (int i = 0; i < substeps; ++i) {
    const Seconds t_sub = t + h * static_cast<double>(i);
    // One shared source evaluation per substep instant, broadcast across
    // the lanes via the reconstruction contract on DriverSample.
    const DriverSample sample = driver.batch_sample(t_sub);
    switch (sample.kind) {
      case DriverSample::Kind::quiet:
        run_lanes([](double) { return 0.0; });
        break;
      case DriverSample::Kind::rectified:
        run_lanes([v_open = sample.v_open, r = sample.r_series](double v_lane) {
          return v_open <= v_lane ? 0.0 : (v_open - v_lane) / r;
        });
        break;
      case DriverSample::Kind::harvester:
        run_lanes([p = sample.power, v_ceiling = sample.v_ceiling,
                   i_max = sample.i_max, v_floor = sample.v_floor](double v_lane) {
          if (v_lane >= v_ceiling) return 0.0;
          if (p <= 0.0) return 0.0;
          const double v_eff = std::max(v_lane, v_floor);
          return std::min(p / v_eff, i_max);
        });
        break;
      case DriverSample::Kind::none:
        EDC_CHECK(false, "step_lanes needs a batchable driver");
    }
  }
}

void SupplyNode::set_bleed(Ohms bleed_resistance) {
  EDC_CHECK(bleed_resistance >= 0.0, "bleed resistance must be non-negative");
  bleed_ = bleed_resistance;
}

void SupplyNode::set_voltage(Volts v) {
  EDC_CHECK(v >= 0.0, "voltage must be non-negative");
  voltage_ = v;
}

AffineSolution SupplyNode::affine_from(Volts v0, Amps load) const {
  EDC_CHECK(v0 >= 0.0, "start voltage must be non-negative");
  EDC_CHECK(load >= 0.0, "load current must be non-negative");
  return AffineSolution(capacitance_, -load, 0.0,
                        bleed_ > 0.0 ? 1.0 / bleed_ : 0.0, v0);
}

AffineSolution SupplyNode::affine_from(Volts v0, Amps load, Volts v_source0,
                                       double slope, Ohms r_series) const {
  EDC_CHECK(v0 >= 0.0, "start voltage must be non-negative");
  EDC_CHECK(r_series > 0.0, "series resistance must be positive");
  EDC_CHECK(load >= 0.0, "load current must be non-negative");
  const double g_bleed = bleed_ > 0.0 ? 1.0 / bleed_ : 0.0;
  return AffineSolution(capacitance_, v_source0 / r_series - load,
                        slope / r_series, 1.0 / r_series + g_bleed, v0);
}

}  // namespace edc::circuit
