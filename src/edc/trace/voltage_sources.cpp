#include "edc/trace/voltage_sources.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "edc/common/check.h"

namespace edc::trace {

namespace {
constexpr double kPi = 3.1415926535897932384626433832795;
constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Forward angular distance from `from` to `to` on the unit circle, in
/// [0, 2 pi).
double forward_arc(double from, double to) {
  double d = std::fmod(to - from, kTwoPi);
  if (d < 0.0) d += kTwoPi;
  return d;
}

/// True when some angle congruent to `target` (mod 2 pi) lies in [p0, p1].
/// Generous on the boundaries — used to widen sine range bounds, where
/// over-inclusion is conservative.
bool arc_contains(double p0, double p1, double target) {
  const double first = target + kTwoPi * std::ceil((p0 - target) / kTwoPi);
  return first <= p1;
}

/// Conservative range of sin over the phase interval [p0, p1] (p1 >= p0).
void sin_range(double p0, double p1, double* lo, double* hi) {
  if (p1 - p0 >= kTwoPi) {
    *lo = -1.0;
    *hi = 1.0;
    return;
  }
  const double s0 = std::sin(p0);
  const double s1 = std::sin(p1);
  *lo = std::min(s0, s1);
  *hi = std::max(s0, s1);
  if (arc_contains(p0, p1, kPi / 2.0)) *hi = 1.0;
  if (arc_contains(p0, p1, 1.5 * kPi)) *lo = -1.0;
}

/// Widens a bound pair by a few ulps so a runtime evaluation that lands on
/// the mathematical extremum cannot exceed the certified bound through
/// floating-point rounding. Exact-constant cells (lo == hi) stay exact —
/// they carry values the runtime reproduces bit-for-bit.
QuietSegmentIndex::Bounds padded(double lo, double hi) {
  if (lo == hi) return {lo, hi};
  const double pad = 4.0 * (std::abs(lo) + std::abs(hi) + 1.0) *
                     std::numeric_limits<double>::epsilon();
  return {lo - pad, hi + pad};
}

/// Exact interval envelope of a piecewise-linear waveform: cell bounds are
/// sample extrema over `group`-sample stretches (with the shared boundary
/// sample included on both sides), head/tail the clamped edge values.
QuietSegmentIndex index_waveform(const Waveform& wave, std::size_t group) {
  const auto& s = wave.samples();
  if (s.size() < 2) {
    const double v = s.empty() ? 0.0 : s.front();
    return QuietSegmentIndex(0.0, 0.0, {}, {v, v}, {v, v});
  }
  std::vector<QuietSegmentIndex::Bounds> cells;
  cells.reserve((s.size() - 1 + group - 1) / group);
  for (std::size_t i = 0; i + 1 < s.size(); i += group) {
    const std::size_t end = std::min(i + group, s.size() - 1);
    double lo = s[i], hi = s[i];
    for (std::size_t j = i + 1; j <= end; ++j) {
      lo = std::min(lo, s[j]);
      hi = std::max(hi, s[j]);
    }
    cells.push_back(padded(lo, hi));
  }
  return QuietSegmentIndex(wave.t0(), wave.dt() * static_cast<double>(group),
                           std::move(cells), {s.front(), s.front()},
                           {s.back(), s.back()});
}
}  // namespace

// ---------------------------------------------------------------- Sine -----

SineVoltageSource::SineVoltageSource(Volts amplitude, Hertz frequency, Volts offset,
                                     Ohms series_resistance)
    : amplitude_(amplitude),
      frequency_(frequency),
      offset_(offset),
      r_series_(series_resistance) {
  EDC_CHECK(amplitude >= 0.0, "amplitude must be non-negative");
  EDC_CHECK(frequency >= 0.0, "frequency must be non-negative");
  EDC_CHECK(series_resistance > 0.0, "series resistance must be positive");
}

Volts SineVoltageSource::open_circuit_voltage(Seconds t) const {
  return offset_ + amplitude_ * std::sin(kTwoPi * frequency_ * t);
}

Seconds SineVoltageSource::bounded_until(Volts floor, Volts ceiling,
                                         Seconds t) const {
  if (ceiling < floor) return t;
  if (amplitude_ == 0.0 || frequency_ == 0.0) {
    // Constant at the offset (a zero frequency freezes the phase at 0).
    return (offset_ >= floor && offset_ <= ceiling) ? kNeverActive : t;
  }
  const double v_now = open_circuit_voltage(t);
  if (v_now < floor || v_now > ceiling) return t;
  // Normalise the band onto the sine: floor <= offset + A sin(theta) <=
  // ceiling becomes s_lo <= sin(theta) <= s_hi.
  const double s_hi = (ceiling - offset_) / amplitude_;
  const double s_lo = (floor - offset_) / amplitude_;
  const double theta = kTwoPi * frequency_ * t;
  double arc = std::numeric_limits<double>::infinity();
  if (s_hi < 1.0) {
    if (s_hi <= -1.0) return t;  // the whole swing violates the ceiling
    // sin(theta) > s_hi on the arc (alpha, pi - alpha).
    const double alpha = std::asin(s_hi);
    if (forward_arc(alpha, theta) < kPi - 2.0 * alpha) return t;
    arc = std::min(arc, forward_arc(theta, alpha));
  }
  if (s_lo > -1.0) {
    if (s_lo >= 1.0) return t;  // the whole swing violates the floor
    // sin(theta) < s_lo on the arc (pi - beta, 2 pi + beta).
    const double beta = std::asin(s_lo);
    if (forward_arc(kPi - beta, theta) < kPi + 2.0 * beta) return t;
    arc = std::min(arc, forward_arc(theta, kPi - beta));
  }
  if (std::isinf(arc)) return kNeverActive;  // band contains the full swing
  return conservative_horizon(t + arc / (kTwoPi * frequency_), t);
}

Seconds SineVoltageSource::constant_until(Seconds t, Volts* value) const {
  if (amplitude_ != 0.0 && frequency_ != 0.0) return t;
  // sin(0) == 0 exactly, so a zero-frequency (or zero-amplitude) sine is
  // the constant offset at every instant.
  *value = offset_;
  return kNeverActive;
}

VoltageSource::LinearCert SineVoltageSource::linear_until(
    Seconds t, Seconds horizon) const {
  if (amplitude_ == 0.0 || frequency_ == 0.0) {
    return VoltageSource::linear_until(t, horizon);  // exact DC certificate
  }
  if (!(horizon > 0.0)) return {};
  const Seconds u = t + horizon;
  const Seconds h = horizon;
  const Volts va = open_circuit_voltage(t);
  const Volts vb = open_circuit_voltage(u);
  LinearCert cert;
  cert.valid = true;
  cert.value = va;
  cert.slope = (vb - va) / h;
  // Endpoint-interpolating chord of a C2 function: |f - chord| <=
  // max|f''| h^2 / 8, with f'' = -A (2 pi f)^2 sin. The pad absorbs the
  // rounding difference between this evaluation and the runtime's chord
  // arithmetic (both are a handful of flops on O(A + |offset|) operands).
  const double omega = kTwoPi * frequency_;
  const double err = amplitude_ * omega * omega * h * h / 8.0;
  const double pad = 8.0 * (std::abs(offset_) + amplitude_ + 1.0) *
                     std::numeric_limits<double>::epsilon();
  cert.err_lo = -(err + pad);
  cert.err_hi = err + pad;
  cert.until = u;
  return cert;
}

std::string SineVoltageSource::name() const {
  return "sine-" + std::to_string(frequency_) + "Hz";
}

// -------------------------------------------------------------- Square -----

SquareVoltageSource::SquareVoltageSource(Volts high, Hertz frequency, double duty,
                                         Volts low, Ohms series_resistance)
    : high_(high), frequency_(frequency), duty_(duty), low_(low),
      r_series_(series_resistance) {
  EDC_CHECK(frequency > 0.0, "frequency must be positive");
  EDC_CHECK(duty > 0.0 && duty < 1.0, "duty must be in (0,1)");
  EDC_CHECK(series_resistance > 0.0, "series resistance must be positive");
}

Volts SquareVoltageSource::open_circuit_voltage(Seconds t) const {
  const double phase = t * frequency_ - std::floor(t * frequency_);
  return phase < duty_ ? high_ : low_;
}

Seconds SquareVoltageSource::bounded_until(Volts floor, Volts ceiling,
                                           Seconds t) const {
  const bool high_ok = high_ >= floor && high_ <= ceiling;
  const bool low_ok = low_ >= floor && low_ <= ceiling;
  if (high_ok && low_ok) return kNeverActive;
  const double cycles = t * frequency_;
  const double phase = cycles - std::floor(cycles);
  const bool in_high = phase < duty_;
  if (in_high ? !high_ok : !low_ok) return t;
  // Quiet until the next switch into the violating level.
  const double switch_cycles =
      in_high ? std::floor(cycles) + duty_ : std::floor(cycles) + 1.0;
  return conservative_horizon(switch_cycles / frequency_, t);
}

Seconds SquareVoltageSource::constant_until(Seconds t, Volts* value) const {
  // Same phase arithmetic as open_circuit_voltage; the conservative shave
  // keeps the certified window strictly inside the half-cycle so rounding
  // in a caller's t' * frequency can never straddle the switch edge.
  const double cycles = t * frequency_;
  const double phase = cycles - std::floor(cycles);
  const bool in_high = phase < duty_;
  *value = in_high ? high_ : low_;
  const double switch_cycles =
      in_high ? std::floor(cycles) + duty_ : std::floor(cycles) + 1.0;
  return conservative_horizon(switch_cycles / frequency_, t);
}

std::string SquareVoltageSource::name() const {
  return "square-" + std::to_string(frequency_) + "Hz";
}

// ---------------------------------------------------------------- Wind -----

WindTurbineSource::WindTurbineSource(const Params& params)
    : params_(params),
      t_star_(params.gust_rise * std::log(1.0 + params.gust_fall / params.gust_rise)),
      norm_((1.0 - std::exp(-t_star_ / params.gust_rise)) *
            std::exp(-t_star_ / params.gust_fall)) {
  EDC_CHECK(params.peak_voltage > 0.0, "peak voltage must be positive");
  EDC_CHECK(params.peak_frequency > 0.0, "peak frequency must be positive");
  EDC_CHECK(params.coil_resistance > 0.0, "coil resistance must be positive");
  EDC_CHECK(params.gust_rise > 0.0 && params.gust_fall > 0.0,
            "gust time constants must be positive");
}

WindTurbineSource WindTurbineSource::single_gust() { return single_gust(Params{}); }

WindTurbineSource WindTurbineSource::single_gust(const Params& params) {
  WindTurbineSource src(params);
  src.gusts_.push_back(Gust{0.0, 1.0});
  // Pre-integrate phase over one gust plus margin.
  src.integrate_phase(params.gust_rise + 6.0 * params.gust_fall + 2.0);
  src.build_quiet_index();
  return src;
}

WindTurbineSource::WindTurbineSource(const Params& params, std::uint64_t seed,
                                     Seconds horizon)
    : WindTurbineSource(params) {
  EDC_CHECK(horizon > 0.0, "horizon must be positive");
  EDC_CHECK(params.gust_period > 0.0, "gust period must be positive");
  Rng rng(seed);
  Seconds t = 0.0;
  while (t < horizon) {
    Gust gust;
    gust.start = t;
    gust.strength = std::clamp(1.0 + params.gust_jitter * rng.normal(), 0.2, 1.6);
    gusts_.push_back(gust);
    const double spacing =
        std::max(0.3 * params.gust_period,
                 params.gust_period * (1.0 + params.gust_jitter * rng.normal()));
    t += spacing;
  }
  integrate_phase(horizon);
  build_quiet_index();
}

void WindTurbineSource::integrate_phase(Seconds horizon) {
  const std::size_t n = static_cast<std::size_t>(horizon * 2000.0) + 2;
  std::vector<double> phase(n);
  const Seconds dt = horizon / static_cast<double>(n - 1);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    phase[i] = acc;
    const Seconds t = dt * static_cast<double>(i);
    const double rel = envelope(t) / params_.peak_voltage;
    acc += kTwoPi * params_.peak_frequency * rel * dt;
  }
  phase_ = Waveform(0.0, dt, std::move(phase));
}

Volts WindTurbineSource::envelope_raw(Seconds t) const {
  double env = 0.0;
  for (const Gust& gust : gusts_) {
    const Seconds rel = t - gust.start;
    if (rel <= 0.0) continue;
    // Gamma-like bump: fast rise (time constant gust_rise), exponential decay
    // (time constant gust_fall), normalised to peak at 1 by norm_.
    const double rise = 1.0 - std::exp(-rel / params_.gust_rise);
    const double fall = std::exp(-rel / params_.gust_fall);
    env += gust.strength * rise * fall / norm_;
  }
  return params_.peak_voltage * env;
}

Volts WindTurbineSource::envelope(Seconds t) const {
  const Volts v = envelope_raw(t);
  return v < params_.cut_in_voltage ? 0.0 : v;
}

void WindTurbineSource::build_quiet_index() {
  // Per-cell certified bounds on v_oc = envelope * sin(phase):
  //
  //  * U(t) = (peak / norm) * sum_i s_i * exp(-(t - start_i) / tau_f)
  //    upper-bounds the raw envelope (each gust's rise factor is < 1), and
  //    (1/tau_r + 1/tau_f) * U(t) upper-bounds its slope — so per cell,
  //    env <= min(mean-value bound from the edge samples, U_max), and a
  //    cell whose envelope bound sits below the cut-in voltage is
  //    *exactly* zero (the cut-in thresholds envelope() to 0).
  //  * The pre-integrated phase is monotone, so sin over a cell ranges
  //    within sin_range(phase(a), phase(b)); beyond the phase grid the
  //    clamp freezes it.
  //
  // Cells extend past the gust horizon until U itself decays below the
  // cut-in, after which the source is certified zero forever.
  const double tau_r = params_.gust_rise;
  const double tau_f = params_.gust_fall;
  const double peak = params_.peak_voltage / norm_;  // U's strength scale
  const double slope_factor = 1.0 / tau_r + 1.0 / tau_f;
  const double cut_in = params_.cut_in_voltage;

  const Seconds w = 2e-3;
  const double decay_per_cell = std::exp(-w / tau_f);
  // Hard cap: horizon plus the time the largest conceivable tail sum needs
  // to decay through the cut-in (plus slack); loops below also stop as
  // soon as the tail actually clears.
  double strength_total = 0.0;
  Seconds last_start = 0.0;
  for (const Gust& gust : gusts_) {
    strength_total += gust.strength;
    last_start = std::max(last_start, gust.start);
  }
  const double tail_decay =
      cut_in > 0.0 && strength_total > 0.0
          ? tau_f * std::log(std::max(peak * strength_total / cut_in, 1.0))
          : 60.0 * tau_f;
  const std::size_t max_cells =
      static_cast<std::size_t>((last_start + t_star_ + tail_decay) / w) + 4;

  std::vector<QuietSegmentIndex::Bounds> cells;
  cells.reserve(max_cells);
  // Per-cell scratch for the chord-certification pass below.
  std::vector<double> u_maxes;
  std::vector<double> env_lowers;
  std::vector<std::uint8_t> gust_onset;  // a gust starts inside the cell
  u_maxes.reserve(max_cells);
  env_lowers.reserve(max_cells);
  gust_onset.reserve(max_cells);
  double tail_sum = 0.0;  // sum_i s_i * exp(-(a - start_i)/tau_f) at cell start
  std::size_t next_gust = 0;
  for (std::size_t i = 0; i < max_cells; ++i) {
    const Seconds a = w * static_cast<double>(i);
    const Seconds b = a + w;
    // Gusts not yet consumed that start by the end of this cell count at
    // full strength for this cell's bound and join the decayed tail sum
    // afterwards (each gust is consumed exactly once).
    double fresh = 0.0;
    double fresh_at_b = 0.0;
    std::size_t g = next_gust;
    while (g < gusts_.size() && gusts_[g].start <= b) {
      fresh += gusts_[g].strength;
      fresh_at_b +=
          gusts_[g].strength * std::exp(-(b - gusts_[g].start) / tau_f);
      ++g;
    }
    const double u_max = peak * (tail_sum + fresh);
    if (u_max < cut_in && g >= gusts_.size()) {
      // The tail can never climb back over the cut-in: zero forever.
      break;
    }
    QuietSegmentIndex::Bounds bounds{0.0, 0.0};
    double env_upper = 0.0;
    double env_lower = 0.0;
    if (u_max >= cut_in) {
      // Mean-value bounds on the raw envelope over [a, b] (|env'| is
      // bounded by slope_factor * U <= slope_factor * u_max a.e.).
      const double mid = 0.5 * (envelope_raw(a) + envelope_raw(b));
      const double swing = 0.5 * slope_factor * u_max * w;
      env_upper = std::min(mid + swing, u_max);
      env_lower = mid - swing;
      if (env_upper >= cut_in) {
        double s_lo = 0.0, s_hi = 0.0;
        sin_range(phase_.at(a), phase_.at(b), &s_lo, &s_hi);
        bounds = padded(s_lo < 0.0 ? env_upper * s_lo : 0.0,
                        s_hi > 0.0 ? env_upper * s_hi : 0.0);
      }
    }
    cells.push_back(bounds);
    u_maxes.push_back(u_max);
    env_lowers.push_back(env_lower);
    gust_onset.push_back(g != next_gust ? 1 : 0);
    tail_sum = tail_sum * decay_per_cell + fresh_at_b;
    next_gust = g;
  }
  // If the cap ran out before the tail cleared (a zero cut-in, say), the
  // tail bound +-U holds forever — U only decays once the gusts stop.
  QuietSegmentIndex::Bounds tail{0.0, 0.0};
  if (cells.size() == max_cells && peak * tail_sum >= cut_in) {
    const double u_end = peak * tail_sum;
    tail = {-u_end, u_end};
  }
  const std::size_t n_cells = cells.size();
  quiet_ = QuietSegmentIndex(0.0, w, std::move(cells), {0.0, 0.0}, tail);

  // Second pass: chord certification for linear_until. A cell is
  // chord-certifiable (kCellChord) when
  //  * the raw envelope provably stays above the cut-in over the whole
  //    cell (env_lower > cut_in), so envelope() == envelope_raw() there
  //    and v_oc = env * sin(phase) is free of the stall discontinuity; and
  //  * no gust starts inside the cell — a gust onset kinks env' (the rise
  //    factor switches on with slope strength/tau_r), which the smooth
  //    curvature bound below does not cover.
  // On such a cell, with U <= u_nb (neighborhood max, see below):
  //    |env''|  <= slope_factor^2 * u_nb      (per-term second derivative)
  //    |env'|   <= slope_factor * u_nb
  //    |phase'| <= P = 2 pi f_peak * u_nb / peak_voltage
  // so away from phase-grid kinks |v_oc''| <= M = slope_factor^2 * u_nb
  // + 2 slope_factor * u_nb * P + u_nb * P^2, giving the classic chord
  // bound M h^2 / 8. The pre-integrated phase is piecewise *linear*, so
  // phase' additionally jumps at grid points by at most
  // slope_factor * u_nb * grid_dt * 2 pi f_peak / peak_voltage; through
  // the chord's Green function (|G| <= h/4, at most (h + grid_dt)/grid_dt
  // kinks in a window of length h) those contribute
  // kink * h * (h + grid_dt) with kink = u_nb * slope_factor * P / 4.
  // The neighborhood max matters because the phase slope over an instant
  // is set by the grid sample up to grid_dt *before* it, which can fall in
  // the previous cell (grid_dt < w).
  chord_kind_.assign(n_cells, kCellNone);
  chord_curve_.assign(n_cells, 0.0);
  chord_kink_.assign(n_cells, 0.0);
  for (std::size_t i = 0; i < n_cells; ++i) {
    // A cell whose envelope provably sits below the cut-in (exactly zero:
    // the {0, 0} quiet-index bounds) has env_lower < cut_in, so it is no
    // chord cell either.
    if (!(env_lowers[i] > cut_in) || gust_onset[i] != 0) continue;
    double u_nb = u_maxes[i];
    if (i > 0) u_nb = std::max(u_nb, u_maxes[i - 1]);
    if (i + 1 < n_cells) u_nb = std::max(u_nb, u_maxes[i + 1]);
    const double phase_rate = kTwoPi * params_.peak_frequency / params_.peak_voltage;
    const double p_bound = phase_rate * u_nb;
    const double curvature = slope_factor * slope_factor * u_nb +
                             2.0 * slope_factor * u_nb * p_bound +
                             u_nb * p_bound * p_bound;
    chord_kind_[i] = kCellChord;
    chord_curve_[i] = curvature / 8.0;
    chord_kink_[i] = u_nb * slope_factor * p_bound / 4.0;
  }
}

Seconds WindTurbineSource::bounded_until(Volts floor, Volts ceiling,
                                         Seconds t) const {
  return quiet_.bounded_until(floor, ceiling, t);
}

Volts WindTurbineSource::open_circuit_voltage(Seconds t) const {
  const Volts env = envelope(t);
  if (env <= 0.0) return 0.0;
  return env * std::sin(phase_.at(t));
}

VoltageSource::LinearCert WindTurbineSource::linear_until(
    Seconds t, Seconds horizon) const {
  const Seconds w = quiet_.cell_width();
  const std::size_t n = chord_kind_.size();
  if (n == 0 || !(w > 0.0) || !(horizon > 0.0) || t < 0.0) return {};
  auto idx = static_cast<std::size_t>(t / w);
  if (idx >= n) return {};
  if (chord_kind_[idx] != kCellChord) return {};
  // Boundary guard: t / w can land one cell high at a float boundary. When
  // the previous cell carries no chord certificate (a possible cut-in
  // stall or gust onset at the shared boundary), only claim once t sits
  // safely inside this cell; when it does, its certificate covers the
  // rounding slack via the coefficient max below.
  const Seconds cell_start = w * static_cast<double>(idx);
  if (idx == 0 || chord_kind_[idx - 1] != kCellChord) {
    const Seconds margin = 1e-9 * (std::abs(t) < 1.0 ? 1.0 : std::abs(t));
    if (!(t - cell_start > margin)) return {};
  }
  double curve = chord_curve_[idx];
  double kink = chord_kink_[idx];
  if (idx > 0 && chord_kind_[idx - 1] == kCellChord) {
    curve = std::max(curve, chord_curve_[idx - 1]);
    kink = std::max(kink, chord_kink_[idx - 1]);
  }
  // Extend across the run of chord cells up to the horizon; the error
  // coefficients are maxed over every covered cell.
  const Seconds want = t + horizon;
  std::size_t j = idx;
  Seconds run_end = cell_start + w;
  while (run_end < want && j + 1 < n && chord_kind_[j + 1] == kCellChord) {
    ++j;
    curve = std::max(curve, chord_curve_[j]);
    kink = std::max(kink, chord_kink_[j]);
    run_end = w * static_cast<double>(j + 1);
  }
  Seconds u = std::min(want, run_end);
  if (u == run_end) {
    // The claim abuts an uncertified cell (or the index end): shave so it
    // provably stays inside the chord-certified run.
    u = conservative_horizon(u, t);
  }
  if (!(u > t)) return {};
  const Seconds h = u - t;
  const Volts va = open_circuit_voltage(t);
  const Volts vb = open_circuit_voltage(u);
  LinearCert cert;
  cert.valid = true;
  cert.value = va;
  cert.slope = (vb - va) / h;
  const double err = curve * h * h + kink * h * (h + phase_.dt());
  const double pad = 8.0 *
                     (std::abs(va) + std::abs(vb) + params_.peak_voltage + 1.0) *
                     std::numeric_limits<double>::epsilon();
  cert.err_lo = -(err + pad);
  cert.err_hi = err + pad;
  cert.until = u;
  return cert;
}

// ------------------------------------------------------------- Kinetic -----

KineticHarvesterSource::KineticHarvesterSource(const Params& params,
                                               std::uint64_t seed, Seconds horizon)
    : params_(params) {
  EDC_CHECK(params.resonance > 0.0, "resonance must be positive");
  EDC_CHECK(params.ring_tau > 0.0, "ring tau must be positive");
  EDC_CHECK(params.coil_resistance > 0.0, "coil resistance must be positive");
  EDC_CHECK(horizon > 0.0, "horizon must be positive");
  Rng rng(seed);
  Seconds t = 0.05;
  while (t < horizon) {
    impulses_.push_back(t);
    const double spacing =
        std::max(0.25 * params.step_period,
                 params.step_period * (1.0 + params.step_jitter * rng.normal()));
    t += spacing;
  }
  build_quiet_index();
}

void KineticHarvesterSource::build_quiet_index() {
  // Per-cell certified bounds on the ring-down superposition: a cell with
  // no impulse inside its 8-tau window is exactly zero (the evaluation
  // cuts contributions off there), and elsewhere
  // |v| <= peak * (decayed tail sum + count of impulses landing in the
  // cell) — every started impulse contributes at most peak * exp(-rel/tau)
  // and a just-landed one at most peak. Past the last impulse's ring
  // window the source is certified zero forever.
  const double tau = params_.ring_tau;
  const Seconds window = 8.0 * tau;
  const Seconds w = 0.25 * tau;
  const double decay_per_cell = std::exp(-w / tau);
  std::vector<QuietSegmentIndex::Bounds> cells;
  if (!impulses_.empty()) {
    const Seconds end = impulses_.back() + window;
    const auto n_cells = static_cast<std::size_t>(end / w) + 1;
    cells.reserve(n_cells);
    double tail_sum = 0.0;      // sum of exp(-(a - t_k)/tau) over started impulses
    std::size_t next_hit = 0;   // first impulse with t_k > cell end
    std::size_t first_live = 0; // first impulse with t_k >= a - window
    for (std::size_t i = 0; i < n_cells; ++i) {
      const Seconds a = w * static_cast<double>(i);
      const Seconds b = a + w;
      double fresh = 0.0;
      double fresh_at_b = 0.0;
      std::size_t k = next_hit;
      while (k < impulses_.size() && impulses_[k] <= b) {
        fresh += 1.0;
        fresh_at_b += std::exp(-(b - impulses_[k]) / tau);
        ++k;
      }
      while (first_live < impulses_.size() && impulses_[first_live] < a - window) {
        ++first_live;
      }
      // Exactly zero when every started impulse has rung past the cutoff
      // and none lands by the cell's end.
      if (first_live >= k) {
        cells.push_back({0.0, 0.0});
      } else {
        const double amp = params_.impulse_peak * (tail_sum + fresh);
        cells.push_back(padded(-amp, amp));
      }
      tail_sum = tail_sum * decay_per_cell + fresh_at_b;
      next_hit = k;
    }
  }
  quiet_ = QuietSegmentIndex(0.0, w, std::move(cells), {0.0, 0.0}, {0.0, 0.0});
}

Seconds KineticHarvesterSource::bounded_until(Volts floor, Volts ceiling,
                                              Seconds t) const {
  return quiet_.bounded_until(floor, ceiling, t);
}

Volts KineticHarvesterSource::open_circuit_voltage(Seconds t) const {
  double v = 0.0;
  // Only the most recent few impulses matter (ring-down); scan backwards.
  for (auto it = impulses_.rbegin(); it != impulses_.rend(); ++it) {
    const Seconds rel = t - *it;
    if (rel < 0.0) continue;
    if (rel > 8.0 * params_.ring_tau) break;
    v += params_.impulse_peak * std::exp(-rel / params_.ring_tau) *
         std::sin(kTwoPi * params_.resonance * rel);
  }
  return v;
}

// ------------------------------------------------------------ Waveform -----

WaveformVoltageSource::WaveformVoltageSource(Waveform wave, Ohms series_resistance,
                                             std::string name)
    : wave_(std::move(wave)), r_series_(series_resistance), name_(std::move(name)) {
  EDC_CHECK(!wave_.empty(), "waveform must not be empty");
  EDC_CHECK(series_resistance > 0.0, "series resistance must be positive");
  quiet_ = index_waveform(wave_, 16);
}

Volts WaveformVoltageSource::open_circuit_voltage(Seconds t) const {
  return wave_.at(t);
}

Seconds WaveformVoltageSource::bounded_until(Volts floor, Volts ceiling,
                                             Seconds t) const {
  return quiet_.bounded_until(floor, ceiling, t);
}

Seconds WaveformVoltageSource::constant_until(Seconds t, Volts* value) const {
  const auto& s = wave_.samples();
  const std::size_t n = s.size();
  if (n == 1) {
    *value = s.front();
    return kNeverActive;
  }
  if (t >= wave_.t_end()) {
    *value = s.back();  // clamped: constant forever
    return kNeverActive;
  }
  // Mirror Waveform::at's cell arithmetic exactly so the certified value is
  // the one every in-window evaluation reproduces.
  std::size_t idx = 0;
  if (t > wave_.t0()) {
    idx = static_cast<std::size_t>((t - wave_.t0()) / wave_.dt());
    if (idx >= n - 1) idx = n - 2;
  }
  if (s[idx + 1] != s[idx]) return t;  // interpolating cell: not constant
  *value = s[idx];
  // Extend through the run of identical samples (bounded walk: a claim is
  // consumed as one span, so the amortised cost stays linear).
  std::size_t run_end = idx + 1;
  const std::size_t cap = std::min(n - 1, run_end + (std::size_t{1} << 16));
  while (run_end < cap && s[run_end + 1] == s[idx]) ++run_end;
  if (run_end == n - 1) return kNeverActive;  // runs to the clamped tail
  // The shave keeps the window strictly inside the run so rounding in the
  // caller's sample arithmetic cannot straddle the first changing cell.
  return conservative_horizon(
      wave_.t0() + wave_.dt() * static_cast<double>(run_end), t);
}

VoltageSource::LinearCert WaveformVoltageSource::linear_until(
    Seconds t, Seconds horizon) const {
  if (!(horizon > 0.0)) return {};
  const auto& s = wave_.samples();
  const std::size_t n = s.size();
  LinearCert cert;
  if (n == 1 || t >= wave_.t_end()) {
    cert.valid = true;
    cert.value = n == 1 ? s.front() : s.back();  // clamped: exact constant
    cert.until = t + horizon;
    return cert;
  }
  if (t <= wave_.t0()) {
    // Clamped head: exact constant until the sample span starts (shaved so
    // rounding in the caller's time arithmetic stays inside the clamp).
    const Seconds u = std::min(conservative_horizon(wave_.t0(), t), t + horizon);
    if (!(u > t)) return {};
    cert.valid = true;
    cert.value = s.front();
    cert.until = u;
    return cert;
  }
  // Mirror Waveform::at's cell arithmetic: within one sample cell the
  // interpolation *is* affine, so the chord is exact up to rounding.
  const double pos = (t - wave_.t0()) / wave_.dt();
  auto idx = static_cast<std::size_t>(pos);
  if (idx >= n - 1) idx = n - 2;
  const Seconds cell_end = wave_.t0() + wave_.dt() * static_cast<double>(idx + 1);
  const Seconds u = std::min(conservative_horizon(cell_end, t), t + horizon);
  if (!(u > t)) return {};
  cert.valid = true;
  cert.value = wave_.at(t);
  cert.slope = (s[idx + 1] - s[idx]) / wave_.dt();
  // The chord and at() differ only through rounding in the position
  // arithmetic; pad by a few ulps scaled to the position magnitude (idx
  // can be large for long traces) and the cell's sample swing.
  const double pad = 8.0 * std::numeric_limits<double>::epsilon() *
                     ((static_cast<double>(idx) + 2.0) *
                          std::abs(s[idx + 1] - s[idx]) +
                      std::abs(s[idx]) + std::abs(s[idx + 1]) + 1.0);
  cert.err_lo = -pad;
  cert.err_hi = pad;
  cert.until = u;
  return cert;
}

}  // namespace edc::trace
