// Voltage comparators with hysteresis.
//
// Hibernus (§III) is interrupt-driven: a comparator watching V_CC fires when
// the supply decays through the hibernate threshold V_H, and again when it
// recovers through the restore threshold V_R. This models that analog block.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "edc/common/units.h"

namespace edc::circuit {

class AffineSolution;

enum class Edge { rising, falling };

struct ComparatorEvent {
  std::string name;  ///< comparator label, e.g. "VH" or "VR"
  Edge edge = Edge::falling;
  Seconds time = 0.0;  ///< interpolated crossing instant
  Volts threshold = 0.0;
};

/// How a supply watcher fires (the quiescent engine's crossing rule).
enum class Trigger : std::uint8_t {
  falling_edge,  ///< a high comparator: V drops to <= trip from above it
  rising_edge,   ///< a low comparator: V climbs to >= trip from below it
  below,         ///< level: V < trip (the MCU's v_min brown-out)
  at_or_above,   ///< level: V >= trip (the MCU's v_on power-on release)
};

/// The crossing rule for span planning: a lower bound on the first instant
/// `trigger` at `trip` could fire while the modelled supply follows
/// `trajectory` and the true voltage stays within `pad` (>= 0, a chord
/// certificate's envelope) of it, starting exactly at trajectory.v0().
/// The true voltage can reach a level once the model enters the level's
/// +/- pad band, so the bound is the band-entry time: 0 when the start is
/// already inside, otherwise the first passage to the near band edge
/// (AffineSolution::time_to_reach, +infinity when it is never reached,
/// including after t_max on non-monotone trajectories). An edge whose
/// comparator starts latched (at or past its trip on the fired side) must
/// first travel back to its armed side, so the band is entered from that
/// side instead — and an exact (pad = 0) monotone trajectory, which crosses
/// each level at most once, never fires it.
[[nodiscard]] Seconds first_fire(const AffineSolution& trajectory, Volts trip,
                                 Trigger trigger, Volts pad, Seconds t_max);

/// The binding watcher of a planned span.
struct Crossing {
  Seconds time = std::numeric_limits<Seconds>::infinity();  ///< +inf: none
  Volts trip = 0.0;  ///< its trip level (valid when time is finite)
};

/// One comparator: output is high when v > threshold (+/- hysteresis/2).
class Comparator {
 public:
  Comparator(std::string name, Volts threshold, Volts hysteresis = 0.0);

  /// Examines the voltage transition (v_prev at t_prev) -> (v_now at t_now)
  /// and returns the crossing event if the output toggled. Linear
  /// interpolation yields the crossing instant.
  std::optional<ComparatorEvent> update(Volts v_prev, Seconds t_prev, Volts v_now,
                                        Seconds t_now);

  /// Re-arms the comparator to the state implied by `v` with no event.
  void reset(Volts v);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Volts threshold() const noexcept { return threshold_; }
  void set_threshold(Volts threshold);
  [[nodiscard]] bool output() const noexcept { return output_high_; }

  /// The trip levels update() compares against (threshold +/- half the
  /// hysteresis band) — the quiescent engine plans analytic crossings
  /// against exactly these.
  [[nodiscard]] Volts rising_trip() const noexcept { return threshold_ + hysteresis_ / 2; }
  [[nodiscard]] Volts falling_trip() const noexcept { return threshold_ - hysteresis_ / 2; }

 private:
  std::string name_;
  Volts threshold_;
  Volts hysteresis_;
  bool output_high_ = false;
};

/// A bank of comparators sharing the supply-node voltage; returns all events
/// of a step ordered by interpolated time.
class ComparatorBank {
 public:
  /// Adds a comparator and returns its index.
  std::size_t add(Comparator comparator);

  [[nodiscard]] Comparator& at(std::size_t index) { return comparators_.at(index); }
  [[nodiscard]] const Comparator& at(std::size_t index) const {
    return comparators_.at(index);
  }
  [[nodiscard]] std::size_t size() const noexcept { return comparators_.size(); }

  std::vector<ComparatorEvent> update(Volts v_prev, Seconds t_prev, Volts v_now,
                                      Seconds t_now);
  void reset(Volts v);

  /// Span planning for the quiescent engine (sim/quiescent_engine.h): the
  /// earliest first_fire() over the bank — each comparator watched on its
  /// armed edge (falling trip while high, rising trip while low). Negative
  /// trips never fire (the node clamps at ground).
  [[nodiscard]] Crossing plan_crossing(const AffineSolution& trajectory, Volts pad,
                                       Seconds t_max) const;

 private:
  std::vector<Comparator> comparators_;
};

}  // namespace edc::circuit
