// Thevenin-style source generators (feed a rectifier / the supply node).
#pragma once

#include <cstdint>
#include <vector>

#include "edc/trace/quiet_index.h"
#include "edc/trace/rng.h"
#include "edc/trace/source.h"
#include "edc/trace/waveform.h"

namespace edc::trace {

/// Laboratory signal generator: sine with DC offset. The paper validated
/// hibernus with a signal generator from DC to 20 Hz (§III).
class SineVoltageSource final : public VoltageSource {
 public:
  SineVoltageSource(Volts amplitude, Hertz frequency, Volts offset = 0.0,
                    Ohms series_resistance = 50.0);

  [[nodiscard]] Volts open_circuit_voltage(Seconds t) const override;
  [[nodiscard]] Ohms series_resistance() const override { return r_series_; }
  /// Exact (up to a shaved float-safety margin) phase solution: the next
  /// crossing of either band edge by offset + A sin(2 pi f t).
  [[nodiscard]] Seconds bounded_until(Volts floor, Volts ceiling,
                                      Seconds t) const override;
  /// A degenerate sine (zero amplitude or frequency) is a DC supply: the
  /// offset is certified forever. A live sine certifies nothing.
  [[nodiscard]] Seconds constant_until(Seconds t, Volts* value) const override;
  /// Endpoint chord over [t, t+horizon) with the C2 curvature envelope
  /// |v_oc - chord| <= A (2 pi f)^2 h^2 / 8 (plus a few-ulp float pad).
  /// This is what lets the ramp planner claim live sine arcs whole; a
  /// degenerate sine defers to the exact constant certificate.
  [[nodiscard]] LinearCert linear_until(Seconds t,
                                        Seconds horizon) const override;
  [[nodiscard]] std::string name() const override;

 private:
  Volts amplitude_;
  Hertz frequency_;
  Volts offset_;
  Ohms r_series_;
};

/// Square wave (50 % duty unless specified): models hard on/off supplies.
class SquareVoltageSource final : public VoltageSource {
 public:
  SquareVoltageSource(Volts high, Hertz frequency, double duty = 0.5,
                      Volts low = 0.0, Ohms series_resistance = 50.0);

  [[nodiscard]] Volts open_circuit_voltage(Seconds t) const override;
  [[nodiscard]] Ohms series_resistance() const override { return r_series_; }
  /// Exact phase arithmetic: quiet until the next switch into a level that
  /// violates the band.
  [[nodiscard]] Seconds bounded_until(Volts floor, Volts ceiling,
                                      Seconds t) const override;
  /// The current level, certified until the next (float-safety-shaved)
  /// switch edge — the canonical charge-span source: every high phase is a
  /// constant-voltage window the rectifier+RC closed form covers whole.
  [[nodiscard]] Seconds constant_until(Seconds t, Volts* value) const override;
  [[nodiscard]] std::string name() const override;

 private:
  Volts high_;
  Hertz frequency_;
  double duty_;
  Volts low_;
  Ohms r_series_;
};

/// Micro wind turbine during gusts (Fig 1a).
///
/// The generator produces an AC voltage whose *amplitude* follows the gust
/// envelope and whose *electrical frequency* tracks rotor speed, which is
/// itself proportional to the envelope (a faster rotor generates both a
/// larger EMF and a higher frequency). A single gust reproduces Fig 1(a):
/// ~8 s long, peaking near +/-5 V with an electrical frequency of a few Hz.
class WindTurbineSource final : public VoltageSource {
 public:
  struct Params {
    Volts peak_voltage = 5.0;       ///< EMF at gust peak.
    Hertz peak_frequency = 6.0;     ///< electrical frequency at gust peak.
    Seconds gust_rise = 1.2;        ///< envelope rise time constant.
    Seconds gust_fall = 2.2;        ///< envelope decay time constant.
    Seconds gust_period = 10.0;     ///< mean spacing between gusts.
    double gust_jitter = 0.35;      ///< relative jitter on spacing/strength.
    Volts cut_in_voltage = 0.15;    ///< below this EMF the rotor is stalled.
    Ohms coil_resistance = 220.0;   ///< generator winding resistance.
  };

  /// A deterministic single-gust turbine starting its gust at t = 0.
  static WindTurbineSource single_gust(const Params& params);
  static WindTurbineSource single_gust();

  /// A stochastic multi-gust turbine (seeded; deterministic afterwards).
  WindTurbineSource(const Params& params, std::uint64_t seed, Seconds horizon);

  [[nodiscard]] Volts open_circuit_voltage(Seconds t) const override;
  [[nodiscard]] Ohms series_resistance() const override { return params_.coil_resistance; }
  /// Backed by the quiet-segment index built over the seeded gust schedule
  /// at construction: per-cell bounds from the analytic gust-envelope tail
  /// sum (every gust's contribution is bounded by its exponential decay)
  /// and the phase waveform's monotone arc, so inter-gust gaps, stalled
  /// (below cut-in) stretches and even the sub-cycle arcs where the EMF
  /// provably stays under the rectifier's conduction band all answer
  /// quiet. This is what lights the quiescent engine up on Fig 8.
  [[nodiscard]] Seconds bounded_until(Volts floor, Volts ceiling,
                                      Seconds t) const override;
  /// Endpoint chord over the run of chord-certified quiet-index cells
  /// containing t (capped at t+horizon). A cell is chord-certifiable when
  /// the gust envelope provably stays above the cut-in (so v_oc is the
  /// smooth env * sin(phase) with no stall discontinuity) and no gust
  /// starts inside it (gust onsets kink env'); the per-cell coefficients
  /// precomputed at construction bound the chord error by
  ///   curve*h^2 + kink*h*(h + phase-grid dt)
  /// — a curvature term from |d2/dt2 (env sin phi)| and a distributional
  /// term for the piecewise-linear phase's slope kinks at grid points.
  /// This is what claims the Fig 8 gust arcs for the ramp planner.
  [[nodiscard]] LinearCert linear_until(Seconds t,
                                        Seconds horizon) const override;
  [[nodiscard]] std::string name() const override { return "micro-wind-turbine"; }

  /// Gust envelope (peak EMF of the AC waveform) at time t; exposed for
  /// tests and for the Fig 1a bench.
  [[nodiscard]] Volts envelope(Seconds t) const;

  /// The quiet-segment index (tests / diagnostics).
  [[nodiscard]] const QuietSegmentIndex& quiet_index() const noexcept {
    return quiet_;
  }

 private:
  struct Gust {
    Seconds start = 0.0;
    double strength = 1.0;  // relative to peak_voltage
  };

  explicit WindTurbineSource(const Params& params);

  /// The gust-envelope sum before the cut-in threshold zeroes it.
  [[nodiscard]] Volts envelope_raw(Seconds t) const;

  /// Builds quiet_ from gusts_ + phase_ (call after both are final).
  void build_quiet_index();

  Params params_;
  // Each gust is the bump (1 - exp(-rel/tau_r)) * exp(-rel/tau_f), which
  // peaks at t_star_ = tau_r * ln(1 + tau_f/tau_r) with value norm_; the
  // envelope divides by norm_ so a unit-strength gust peaks at 1.
  double t_star_;
  double norm_;
  std::vector<Gust> gusts_;
  // Electrical phase is the integral of instantaneous frequency; we sample it
  // on a fine grid at construction so open_circuit_voltage() stays a pure
  // function of t.
  Waveform phase_;
  QuietSegmentIndex quiet_;
  // Per-cell chord certification, same cell geometry as quiet_ (t0 = 0,
  // width = quiet_.cell_width()), filled by build_quiet_index.
  enum : std::uint8_t { kCellNone = 0, kCellZero = 1, kCellChord = 2 };
  std::vector<std::uint8_t> chord_kind_;
  std::vector<double> chord_curve_;  // h^2 coefficient of the chord error
  std::vector<double> chord_kink_;   // h*(h + grid dt) coefficient
};

/// Resonant kinetic (inertial/piezo) harvester excited by an impulse train,
/// e.g. heel strikes: each impulse rings down at the transducer's resonant
/// frequency.
class KineticHarvesterSource final : public VoltageSource {
 public:
  struct Params {
    Volts impulse_peak = 3.5;      ///< EMF just after an impulse.
    Hertz resonance = 50.0;        ///< transducer resonant frequency.
    Seconds ring_tau = 0.12;       ///< ring-down time constant.
    Seconds step_period = 0.9;     ///< mean time between impulses.
    double step_jitter = 0.25;     ///< relative jitter on spacing.
    Ohms coil_resistance = 500.0;
  };

  KineticHarvesterSource(const Params& params, std::uint64_t seed, Seconds horizon);

  [[nodiscard]] Volts open_circuit_voltage(Seconds t) const override;
  [[nodiscard]] Ohms series_resistance() const override { return params_.coil_resistance; }
  /// Backed by the quiet-segment index built over the seeded impulse train
  /// at construction: a cell with no impulse inside its 8-tau ring window
  /// is exactly zero, and elsewhere the ring-down tail sum bounds the EMF
  /// magnitude — so late-tail stretches answer quiet for the rectifier's
  /// conduction-band queries even while the transducer still rings.
  [[nodiscard]] Seconds bounded_until(Volts floor, Volts ceiling,
                                      Seconds t) const override;
  [[nodiscard]] std::string name() const override { return "kinetic-harvester"; }

  /// The quiet-segment index (tests / diagnostics).
  [[nodiscard]] const QuietSegmentIndex& quiet_index() const noexcept {
    return quiet_;
  }

 private:
  void build_quiet_index();

  Params params_;
  std::vector<Seconds> impulses_;
  QuietSegmentIndex quiet_;
};

/// Plays back an arbitrary waveform as an open-circuit voltage (e.g. a
/// recorded trace loaded from CSV).
class WaveformVoltageSource final : public VoltageSource {
 public:
  WaveformVoltageSource(Waveform wave, Ohms series_resistance,
                        std::string name = "waveform-voltage");

  [[nodiscard]] Volts open_circuit_voltage(Seconds t) const override;
  [[nodiscard]] Ohms series_resistance() const override { return r_series_; }
  /// Backed by a quiet-segment index built over the trace at construction:
  /// the recording is piecewise linear, so per-cell sample extrema bound it
  /// exactly and *any* band query answers — zero gaps, but also every
  /// stretch where the recording provably stays under the rectifier's
  /// conduction ceiling (the sub-cycle arcs of a recorded AC burst).
  [[nodiscard]] Seconds bounded_until(Volts floor, Volts ceiling,
                                      Seconds t) const override;
  /// Exact run-length certification: a run of identical consecutive
  /// samples interpolates to a constant, so recorded DC stretches become
  /// charge-span windows.
  [[nodiscard]] Seconds constant_until(Seconds t, Volts* value) const override;
  /// Within one sample cell the interpolated trace *is* affine, so the
  /// cell's chord is exact up to interpolation rounding (a few-ulp pad);
  /// the clamped head/tail certify constant chords. Every recorded trace
  /// thereby feeds the ramp planner cell by cell.
  [[nodiscard]] LinearCert linear_until(Seconds t,
                                        Seconds horizon) const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  Waveform wave_;
  QuietSegmentIndex quiet_;
  Ohms r_series_;
  std::string name_;
};

}  // namespace edc::trace
