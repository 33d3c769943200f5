#include "edc/sim/quiescent_engine.h"

#include <algorithm>
#include <cmath>

#include "edc/common/check.h"
#include "edc/sim/simulator.h"

namespace edc::sim {

namespace {

/// Number of whole dt steps starting at t that fit strictly inside [t, u),
/// clamped to max_steps. A skipped step spans [s, s + dt], so the whole
/// span must sit inside the driver's quiet window.
std::uint64_t steps_within(Seconds t, Seconds u, Seconds dt,
                           std::uint64_t max_steps) {
  if (!(u > t)) return 0;
  if (std::isinf(u)) return max_steps;
  const double n = std::floor((u - t) / dt);
  if (n <= 0.0) return 0;
  if (n >= static_cast<double>(max_steps)) return max_steps;
  return static_cast<std::uint64_t>(n);
}

/// The chord certificate, contracted ICP-style (the bound-and-shrink
/// idiom): ask the driver for a certified chord over a candidate horizon
/// and shrink the horizon while the interval envelope exceeds the span
/// tolerance. Chord error scales ~h^2 for the C2 sources, so a few halvings
/// converge; give up below a 2-step window, where nothing is left to claim.
/// Even 2-3 step spans pay for themselves: near every chord-run boundary
/// the alternative is a fine step *plus* this same contractor run ending in
/// rejection. An invalid certificate exits immediately — that is the
/// per-fine-step rejection path during uncertifiable stretches, and must
/// stay one virtual call.
circuit::RampSpanCert contract_chord(const circuit::SupplyDriver& driver, Seconds t,
                                     std::uint64_t max_steps, Seconds dt, Volts tol) {
  const double n_cap =
      static_cast<double>(std::min<std::uint64_t>(max_steps, 256));
  Seconds horizon = n_cap * dt;
  for (int iter = 0; iter < 16 && horizon >= 2.0 * dt; ++iter) {
    const circuit::RampSpanCert cert = driver.plan_ramp_span(t, horizon);
    if (!cert.valid) return cert;
    if (std::max(-cert.err_lo, cert.err_hi) <= tol) return cert;
    horizon = std::min(cert.until - t, horizon) * 0.5;
  }
  return {};
}

}  // namespace

std::uint64_t QuiescentEngine::quiet_steps_on_decay(
    const circuit::AffineSolution& trajectory, Seconds t, Seconds dt,
    std::uint64_t n_cap) const {
  // The driver window is evaluated at the candidate span's voltage floor
  // (quiescent_until is monotone in v_floor, so one most-conservative
  // query per candidate is sound). A deep candidate can tighten the band
  // so far that not even one step fits although the first steps decay
  // barely at all — retrying geometrically shallower candidates recovers
  // those spans. Every accepted count is sound: the window was probed at a
  // floor at least as deep as the span it licenses, and a shorter span
  // only raises the true floor.
  std::uint64_t n = n_cap;
  while (n > 0) {
    const Volts v_floor = trajectory.voltage_at(dt * static_cast<double>(n));
    const std::uint64_t m =
        steps_within(t, driver_->quiescent_until(v_floor, t), dt, n);
    if (m > 0) return m;
    n /= 16;
  }
  return 0;
}

QuiescentEngine::QuiescentEngine(const SimConfig& config,
                                 const circuit::SupplyNode& node,
                                 const circuit::SupplyDriver& driver,
                                 const mcu::Mcu& mcu)
    : config_(&config), node_(&node), driver_(&driver), mcu_(&mcu) {}

bool QuiescentEngine::enabled() const noexcept {
  return config_->quiescent_fast_path || config_->macro_stepping;
}

std::optional<QuiescentSpan> QuiescentEngine::plan(Seconds t,
                                                   std::uint64_t max_steps) const {
  if (max_steps == 0) return std::nullopt;
  const mcu::McuState state = mcu_->state();
  const bool off = state == mcu::McuState::off;
  // Below the power-on threshold the node can only follow a certified
  // trajectory toward it, so the spans stop strictly before any boot; at
  // or above the threshold the fine path must run (it will boot the MCU
  // this step). A powered MCU is quiescent only while it sleeps, waits or
  // is done under a policy that certifies comparator-only wake-ups.
  if (config_->macro_stepping &&
      (off ? node_->voltage() < mcu_->power().v_on
           : (state == mcu::McuState::sleep || state == mcu::McuState::wait ||
              state == mcu::McuState::done) &&
                 mcu_->wake_is_comparator_driven())) {
    for (const SpanKind kind : {SpanKind::decay, SpanKind::exact, SpanKind::chord}) {
      if (auto span = plan_span(kind, t, max_steps)) return span;
    }
  }
  // The bit-exact dead-node skip also covers drivers without usable
  // hints (per-substep probing), so try it even when a macro plan
  // found no provably-quiet step.
  if (off && config_->quiescent_fast_path) return plan_dead(t, max_steps);
  return std::nullopt;
}

std::optional<QuiescentSpan> QuiescentEngine::plan_dead(
    Seconds t, std::uint64_t /*max_steps*/) const {
  // With the node clamped at exactly 0 V and no injected current, every
  // energy flow of the step is identically zero (all flows integrate
  // i * v_mid with v_mid = 0) and neither the node voltage nor the MCU
  // state machine can change, so skipping the step is bit-exact. The
  // driver must be quiet at *every* substep instant the ODE would have
  // sampled, or the slow path could have started charging mid-step.
  // A power-on threshold at (or below) ground would boot the MCU from a
  // dead node in the slow path; the skip must never engage then.
  if (node_->voltage() != 0.0 || mcu_->power().v_on <= 0.0) return std::nullopt;
  QuiescentSpan span;
  span.steps = 1;
  span.v_end = 0.0;
  span.trajectory = node_->affine_from(0.0, 0.0);
  const Seconds dt = config_->dt;
  // One quiescent_until() hint covers a whole dead span: a step fully
  // inside the cached quiet window skips on a single comparison instead of
  // one virtual driver probe per ODE substep. Spans stay single-step so
  // the per-step metric additions (time_off += dt) remain bit-identical
  // to the fine path's accumulation order.
  if (t >= quiet_from_ && t + dt <= quiet_until_) return span;
  const Seconds hint = driver_->quiescent_until(0.0, t);
  if (hint > t) {
    quiet_from_ = t;
    quiet_until_ = hint;
    if (t + dt <= hint) return span;
  }
  // No usable hint (or the window ends mid-step): fall back to probing the
  // substep instants. The hint is conservative, so the final decision is
  // identical to the historical per-substep check.
  const Seconds h = dt / static_cast<double>(config_->node_substeps);
  for (int i = 0; i < config_->node_substeps; ++i) {
    if (driver_->current_into(0.0, t + h * static_cast<double>(i)) > 0.0) {
      return std::nullopt;
    }
  }
  return span;
}

std::optional<QuiescentSpan> QuiescentEngine::plan_span(
    SpanKind kind, Seconds t, std::uint64_t max_steps) const {
  const Seconds dt = config_->dt;
  const Volts v0 = node_->voltage();

  // 1. Certificate. A decay certifies no injected current at all:
  // quiescent_until is monotone in v_floor and the node only decays from
  // v0, so the window at v0 bounds every achievable horizon from above (it
  // is refined at the trajectory floor below). The source kinds certify a
  // rectified Thevenin source: exact (zero envelope, constant voltage, no
  // contraction and no horizon cap) or a contracted chord.
  circuit::RampSpanCert cert;
  if (kind == SpanKind::decay) {
    cert.valid = true;
    cert.until = driver_->quiescent_until(v0, t);
  } else if (kind == SpanKind::exact) {
    const circuit::ChargeSpanCert exact = driver_->plan_charge_span(t);
    cert.valid = exact.valid;
    cert.v_source0 = exact.v_source;
    cert.r_series = exact.r_series;
    cert.until = exact.until;
  } else {
    cert = contract_chord(*driver_, t, max_steps, dt, config_->macro_v_tol);
  }
  if (!cert.valid) return std::nullopt;
  std::uint64_t n = steps_within(t, cert.until, dt, max_steps);
  if (n == 0) return std::nullopt;
  // The true source may deviate from the chord by pad; the node (a stable
  // linear ODE with DC gain <= 1 from the source and zero initial
  // deviation) then deviates from the modelled trajectory by at most pad.
  const Volts pad = std::max(-cert.err_lo, cert.err_hi);

  // 2. Solution.
  QuiescentSpan span;
  span.draw = mcu_->current_draw(v0, t);  // constant per state
  if (kind == SpanKind::decay) {
    // A tolerance-dead node decays no further (this is what lets
    // exponential tails terminate); its residual charge books to the bleed
    // in one lump below, so the ledger still closes exactly.
    span.trajectory =
        node_->affine_from(v0 <= config_->macro_v_tol ? 0.0 : v0, span.draw);
  } else {
    // The rectifier must conduct from the start (the margin clears the
    // chord plus the node envelope); the whole window is certified below.
    if (!(cert.v_source0 - v0 > 2.0 * pad)) return std::nullopt;
    span.trajectory =
        node_->affine_from(v0, span.draw, cert.v_source0, cert.slope, cert.r_series);
  }

  // 3. Watcher horizon: the first instant any armed watcher could fire.
  // The crossing step itself must run finely, so the span may only cover
  // steps that end before it.
  const circuit::Crossing crossing = mcu_->plan_crossing(
      span.trajectory, pad, dt * (static_cast<double>(n) + 1.0));
  const bool has_crossing = std::isfinite(crossing.time);
  if (has_crossing) {
    const double whole = std::ceil(crossing.time / dt) - 1.0;
    if (whole <= 0.0) return std::nullopt;
    if (whole < static_cast<double>(n)) n = static_cast<std::uint64_t>(whole);
  }
  if (kind == SpanKind::decay) {
    // The decay certificate proper: the driver window at the span's floor.
    n = quiet_steps_on_decay(span.trajectory, t, dt, n);
    if (n == 0) return std::nullopt;
  } else {
    // A source span's closed form holds only while the rectifier provably
    // keeps conducting and the ground clamp provably never engages.
    const Seconds window = dt * static_cast<double>(n);
    if (!(span.trajectory.min_voltage(window) >= pad) ||
        !(span.trajectory.min_margin_below(cert.v_source0, cert.slope, window) >
          2.0 * pad)) {
      return std::nullopt;
    }
  }

  // 4. Float-guard back-off. time_to_reach and voltage_at are inverses
  // only up to rounding, and a span that ends at or past the binding
  // watcher's band edge would swallow its crossing (fine stepping would
  // resume on the far side and the edge never fire). The end must stay
  // strictly on the starting side; backing off a step is always sound.
  Seconds elapsed = dt * static_cast<double>(n);
  span.v_end = span.trajectory.voltage_at(elapsed);
  if (has_crossing) {
    const bool from_above = span.trajectory.v0() > crossing.trip;
    const Volts guard = from_above ? crossing.trip + pad : crossing.trip - pad;
    while (n > 0 && (from_above ? span.v_end <= guard : span.v_end >= guard)) {
      --n;
      elapsed = dt * static_cast<double>(n);
      span.v_end = span.trajectory.voltage_at(elapsed);
    }
    if (n == 0) return std::nullopt;
  }

  // 5. Ledger booking, exact in the continuum.
  span.steps = n;
  const Joules delta =
      0.5 * node_->capacitance() * (span.v_end * span.v_end - v0 * v0);
  span.consumed = std::max(span.draw * span.trajectory.integral(elapsed), 0.0);
  if (kind == SpanKind::decay) {
    // Nothing is harvested: the stored-energy drop divides between the
    // constant draw and the bleed. Clamping guards the last few ulp.
    span.consumed = std::min(span.consumed, -delta);
    span.dissipated = -delta - span.consumed;
  } else {
    const Ohms bleed = node_->bleed();
    span.dissipated =
        bleed > 0.0 ? std::max(span.trajectory.square_integral(elapsed) / bleed, 0.0)
                    : 0.0;
    // Deriving the harvested share from the continuum identity
    // harvested == stored delta + consumed + dissipated closes the ledger.
    span.harvested = delta + span.consumed + span.dissipated;
  }
  EDC_ASSERT(span.consumed >= 0.0 && span.dissipated >= 0.0 && span.harvested >= 0.0);
  return span;
}

}  // namespace edc::sim
