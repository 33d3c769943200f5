#include "edc/circuit/comparator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "edc/circuit/supply_node.h"
#include "edc/common/check.h"

namespace edc::circuit {

Comparator::Comparator(std::string name, Volts threshold, Volts hysteresis)
    : name_(std::move(name)), threshold_(threshold), hysteresis_(hysteresis) {
  EDC_CHECK(threshold >= 0.0, "threshold must be non-negative");
  EDC_CHECK(hysteresis >= 0.0, "hysteresis must be non-negative");
}

void Comparator::reset(Volts v) { output_high_ = v > rising_trip(); }

void Comparator::set_threshold(Volts threshold) {
  EDC_CHECK(threshold >= 0.0, "threshold must be non-negative");
  threshold_ = threshold;
}

std::optional<ComparatorEvent> Comparator::update(Volts v_prev, Seconds t_prev,
                                                  Volts v_now, Seconds t_now) {
  const Volts trip = output_high_ ? falling_trip() : rising_trip();
  const bool crossed =
      output_high_ ? (v_now <= trip && v_prev > trip) : (v_now >= trip && v_prev < trip);
  if (!crossed) {
    // Handle the degenerate case where the step lands exactly on the trip
    // from an equal previous value: no edge.
    return std::nullopt;
  }
  const double denom = v_now - v_prev;
  const double frac = denom == 0.0 ? 1.0 : std::clamp((trip - v_prev) / denom, 0.0, 1.0);
  ComparatorEvent event;
  event.name = name_;
  event.edge = output_high_ ? Edge::falling : Edge::rising;
  event.time = t_prev + (t_now - t_prev) * frac;
  event.threshold = trip;
  output_high_ = !output_high_;
  return event;
}

std::size_t ComparatorBank::add(Comparator comparator) {
  comparators_.push_back(std::move(comparator));
  return comparators_.size() - 1;
}

std::vector<ComparatorEvent> ComparatorBank::update(Volts v_prev, Seconds t_prev,
                                                    Volts v_now, Seconds t_now) {
  std::vector<ComparatorEvent> events;
  for (auto& comparator : comparators_) {
    if (auto event = comparator.update(v_prev, t_prev, v_now, t_now)) {
      events.push_back(*std::move(event));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ComparatorEvent& a, const ComparatorEvent& b) {
              return a.time < b.time;
            });
  return events;
}

void ComparatorBank::reset(Volts v) {
  for (auto& comparator : comparators_) comparator.reset(v);
}

Seconds first_fire(const AffineSolution& trajectory, Volts trip, Trigger trigger,
                   Volts pad, Seconds t_max) {
  const Volts v0 = trajectory.v0();
  bool down = trigger == Trigger::falling_edge || trigger == Trigger::below;
  const bool edge = trigger == Trigger::falling_edge || trigger == Trigger::rising_edge;
  if (edge && !(down ? v0 > trip : v0 < trip)) {
    // Latched: update() needs a previous sample strictly on the armed side.
    if (pad == 0.0 && trajectory.monotone()) {
      return std::numeric_limits<Seconds>::infinity();
    }
    down = !down;
  }
  const Volts level = down ? trip + pad : trip - pad;
  if (down ? v0 <= level : v0 >= level) return 0.0;
  return trajectory.time_to_reach(level, t_max);
}

Crossing ComparatorBank::plan_crossing(const AffineSolution& trajectory, Volts pad,
                                       Seconds t_max) const {
  Crossing crossing;
  for (const auto& comparator : comparators_) {
    const bool high = comparator.output();
    const Volts trip = high ? comparator.falling_trip() : comparator.rising_trip();
    if (trip < 0.0) continue;
    const Seconds time = first_fire(
        trajectory, trip, high ? Trigger::falling_edge : Trigger::rising_edge, pad, t_max);
    if (time < crossing.time) crossing = {time, trip};
  }
  return crossing;
}

}  // namespace edc::circuit
