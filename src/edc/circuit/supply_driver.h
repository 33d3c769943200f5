// Interfaces between sources, the supply node, and loads.
//
// The supply node is the single electrical node of Fig 4: harvester output,
// storage/decoupling capacitance, and the computational load all meet here.
// Anything that pushes current in implements SupplyDriver; anything that
// draws current implements Load.
#pragma once

#include <limits>
#include <string>

#include "edc/common/units.h"

namespace edc::circuit {

/// Certificate for the quiescent engine's charge-span planner
/// (sim::QuiescentEngine): over [t, until) the driver's injected current is
/// *exactly* the rectified-Thevenin form
///
///   current_into(v, t') == max(0, (v_source - v) / r_series)
///
/// with both parameters constant. Unlike quiescent_until's quiet claim this
/// is an exactness contract — the engine substitutes the closed-form
/// rectifier+RC charge trajectory (circuit::AffineSolution) for the fine
/// path's substepping across the whole window, so "approximately constant"
/// would corrupt macro runs. `valid == false` claims nothing.
struct ChargeSpanCert {
  bool valid = false;
  Volts v_source = 0.0;  ///< constant rectified open-circuit voltage (>= 0)
  Ohms r_series = 0.0;   ///< series resistance (> 0 when valid)
  Seconds until = 0.0;   ///< certificate holds on [t, until)
};

/// Certificate for the quiescent engine's *ramp*-span planner: over
/// [t, until) the driver's injected current is the rectified-Thevenin form
///
///   current_into(v, t') == (vs(t') - v) / r_series   while vs(t') > v
///
/// where the rectified open-circuit voltage vs tracks the affine chord
///
///   v_source0 + slope * (t' - t) + [err_lo, err_hi]
///
/// and *provably never engages the rectifier clamp* within that envelope
/// (the sign-definiteness is certified at issue time, so the piecewise
/// max(0, .) never bends the affine form). Unlike ChargeSpanCert this is
/// an interval contract, not an exactness contract: the chord may deviate
/// from the true source within the certified envelope, and the engine's
/// ICP-style contractor re-queries with a smaller horizon until the
/// envelope fits its span tolerance before committing a jump.
/// `valid == false` claims nothing.
struct RampSpanCert {
  bool valid = false;
  Volts v_source0 = 0.0;  ///< rectified chord value at the query instant
  double slope = 0.0;     ///< chord slope [V/s]
  Volts err_lo = 0.0;     ///< envelope low side (<= 0)
  Volts err_hi = 0.0;     ///< envelope high side (>= 0)
  Ohms r_series = 0.0;    ///< series resistance (> 0 when valid)
  Seconds until = 0.0;    ///< certificate holds on [t, until)
};

/// One shared source evaluation for the batched SoA node step
/// (SupplyNode::step_lanes): the source-dependent terms of current_into at
/// a single instant, factored out so many lanes whose source axes agree
/// can evaluate the (possibly expensive) source once and broadcast. The
/// exactness contract matches ChargeSpanCert's spirit: reconstructing the
/// per-lane current from the sample with the alternative-specific formula
/// below must reproduce current_into(v, t) *bit-for-bit* for every node
/// voltage v >= 0 — the batch runner's results are differential-tested
/// for bit-identity against the scalar path (tests/batch_diff_test.cpp).
///
///   quiet:      i = 0
///   rectified:  i = (v_open <= v) ? 0 : (v_open - v) / r_series
///   harvester:  i = (v >= v_ceiling) ? 0
///             : (power <= 0)         ? 0
///             : min(power / max(v, v_floor), i_max)
struct DriverSample {
  enum class Kind : std::uint8_t {
    none,       ///< driver does not support batch sampling
    quiet,      ///< injects nothing at this instant regardless of v
    rectified,  ///< rectified-Thevenin form (RectifiedSourceDriver)
    harvester,  ///< power-envelope converter form (HarvesterPowerDriver)
  };
  Kind kind = Kind::none;
  // Kind::rectified
  Volts v_open = 0.0;   ///< rectified open-circuit voltage at this instant
  Ohms r_series = 0.0;  ///< source series resistance (> 0)
  // Kind::harvester
  Watts power = 0.0;    ///< efficiency-scaled available power at this instant
  Volts v_ceiling = 0.0;
  Amps i_max = 0.0;
  Volts v_floor = 0.0;
};

class SupplyDriver {
 public:
  virtual ~SupplyDriver() = default;

  /// Current injected into the node when the node voltage is `v_node` at
  /// time `t`. Must be >= 0 (rectifiers/converters block reverse flow).
  [[nodiscard]] virtual Amps current_into(Volts v_node, Seconds t) const = 0;

  /// Event-horizon hint for the simulator's quiescent fast path and the
  /// opt-in quiescent engine (sim::QuiescentEngine): the latest time u >= t such
  /// that current_into(v, t') is *guaranteed* to be 0 at every instant
  /// t' of [t, u) for every node voltage v >= v_floor. (Injected current
  /// never increases with node voltage, so the caller only needs a lower
  /// bound on the node trajectory over the span.) The default claims
  /// nothing — returning t forces the caller to sample current_into —
  /// which is always correct; overrides must err quiet-side only, and may
  /// return +infinity for a permanently dead source.
  [[nodiscard]] virtual Seconds quiescent_until(Volts v_floor, Seconds t) const {
    (void)v_floor;
    return t;
  }

  /// Piecewise-constant certification for charge-span planning (see
  /// ChargeSpanCert). The default claims nothing, which is always correct;
  /// overrides must be exact over the certified window and may err
  /// short-side only.
  [[nodiscard]] virtual ChargeSpanCert plan_charge_span(Seconds t) const {
    (void)t;
    return {};
  }

  /// Piecewise-linear interval certification for ramp-span planning (see
  /// RampSpanCert). `horizon` caps the window the caller can use — issuing
  /// a shorter certificate is always sound, and the caller re-queries with
  /// smaller horizons while the envelope exceeds its tolerance. The
  /// default claims nothing, which is always correct.
  [[nodiscard]] virtual RampSpanCert plan_ramp_span(Seconds t,
                                                    Seconds horizon) const {
    (void)t;
    (void)horizon;
    return {};
  }

  /// Whether batch_sample() yields usable samples (the batched sweep
  /// runner falls back to the scalar path otherwise).
  [[nodiscard]] virtual bool batchable() const noexcept { return false; }

  /// The shared source evaluation of the batched node step (see
  /// DriverSample): all source-dependent terms of current_into(., t),
  /// evaluated once per substep instant and broadcast across lanes. The
  /// default claims nothing (Kind::none); overrides must honour the
  /// bit-identity contract documented on DriverSample.
  [[nodiscard]] virtual DriverSample batch_sample(Seconds t) const {
    (void)t;
    return {};
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

class Load {
 public:
  virtual ~Load() = default;

  /// Current drawn from the node at node voltage `v_node`, time `t`.
  /// Must be >= 0.
  [[nodiscard]] virtual Amps current_draw(Volts v_node, Seconds t) const = 0;
};

/// A fixed resistive load (used in tests against the analytic RC solution).
class ResistiveLoad final : public Load {
 public:
  explicit ResistiveLoad(Ohms resistance);

  [[nodiscard]] Amps current_draw(Volts v_node, Seconds) const override {
    return v_node > 0.0 ? v_node / resistance_ : 0.0;
  }

 private:
  Ohms resistance_;
};

/// A constant-current load (ideal active MCU approximation).
class ConstantCurrentLoad final : public Load {
 public:
  explicit ConstantCurrentLoad(Amps current);

  [[nodiscard]] Amps current_draw(Volts, Seconds) const override { return current_; }

 private:
  Amps current_;
};

/// A driver that injects nothing (harvester absent / night).
class NullDriver final : public SupplyDriver {
 public:
  [[nodiscard]] Amps current_into(Volts, Seconds) const override { return 0.0; }
  [[nodiscard]] Seconds quiescent_until(Volts, Seconds) const override {
    return std::numeric_limits<Seconds>::infinity();
  }
  [[nodiscard]] bool batchable() const noexcept override { return true; }
  [[nodiscard]] DriverSample batch_sample(Seconds) const override {
    DriverSample sample;
    sample.kind = DriverSample::Kind::quiet;
    return sample;
  }
  [[nodiscard]] std::string name() const override { return "null"; }
};

}  // namespace edc::circuit
