#include "edc/sim/lane.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "edc/common/check.h"
#include "edc/sim/step_lattice.h"

namespace edc::sim {

Lane::Lane(const SimConfig& config, circuit::SupplyNode& node,
           const circuit::SupplyDriver& driver, mcu::Mcu& mcu,
           mcu::FrequencyGovernor* governor)
    : t_end_(config.t_end),
      probing_(config.probe_interval > 0.0),
      last_state_(mcu.state()),
      v_prev_(node.voltage()),
      config_(&config),
      node_(&node),
      mcu_(&mcu),
      governor_(governor),
      // All idle-regime planning — the bit-exact dead-node skip, the
      // MCU-off decay spans, and the comparator-watched sleep spans — lives
      // in the one quiescent engine; the lane only folds its own deadlines
      // (t_end, the governor period) into the span cap and replays probe
      // samples from the analytic trajectory so schedules stay in
      // lock-step with the fine path.
      engine_(config, node, driver, mcu) {
  engine_enabled_ = engine_.enabled();
  result_.stored_initial = node.stored_energy();
  if (probing_) {
    // At most one sample is taken per step, so the sample count is bounded
    // by the step count even when probe_interval < dt.
    const auto capacity = static_cast<std::size_t>(std::min(
                              config.t_end / config.probe_interval,
                              config.t_end / config.dt)) +
                          2;
    probe_vcc_.reserve(capacity);
    probe_freq_.reserve(capacity);
    probe_state_.reserve(capacity);
    probe_power_.reserve(capacity);
  }
}

bool Lane::book_span() {
  if (!engine_enabled_) return false;
  const Seconds dt = config_->dt;
  std::uint64_t max_steps = steps_starting_before(step_, t_end_, dt);
  if (governor_ != nullptr) {
    max_steps = std::min(max_steps, steps_starting_before(step_, next_governor_, dt));
  }
  const auto span = engine_.plan(t_, max_steps);
  if (!span) return false;
  // A planned span must make progress: a zero-step span would spin the
  // driving loop forever at the same t (the plan/fine-step livelock a
  // zero-length quiet-index sliver once caused). Fail loudly instead.
  EDC_CHECK(span->steps >= 1, "quiescent span must cover >= 1 step");
  mcu::Mcu& mcu = *mcu_;
  if (probing_) {
    // Replay the fine path's probe schedule: a sample lands on every
    // skipped step whose start is at or past the deadline, carrying the
    // end-of-step analytic voltage.
    const double freq_mhz = mcu.frequency() / 1e6;
    const auto state_channel = static_cast<double>(mcu.state());
    double k_min = 0.0;
    while (true) {
      double k = std::ceil((next_probe_ - t_) / dt);
      if (k < k_min) k = k_min;
      if (k >= static_cast<double>(span->steps)) break;
      const Volts v_probe = span->trajectory.voltage_at((k + 1.0) * dt);
      probe_vcc_.push_back(v_probe);
      probe_freq_.push_back(freq_mhz);
      probe_state_.push_back(state_channel);
      probe_power_.push_back(span->draw * v_probe * 1e3);
      next_probe_ += config_->probe_interval;
      k_min = k + 1.0;
    }
  }
  const Seconds jumped = static_cast<double>(span->steps) * dt;
  mcu.note_quiescent_span(jumped, span->consumed);
  result_.harvested += span->harvested;  // nonzero for source spans only
  result_.consumed += span->consumed;
  result_.dissipated += span->dissipated;
  node_->set_voltage(span->v_end);
  // The loop time lives on an exact step lattice (t == dt * step) instead
  // of accumulating t += dt: summation order then cannot drift the time
  // base, so a macro run that jumps spans of whole steps lands on exactly
  // the same instants — and the same probe/governor/termination schedule —
  // as the fine run it must stay in lock-step with.
  step_ += span->steps;
  t_ = dt * static_cast<double>(step_);
  result_.span_steps += span->steps;
  ++result_.spans;
  v_prev_ = span->v_end;
  // Spans never cover a governor deadline (max_steps stops at it), so the
  // re-schedule — like every other discrete action — happens on a fine
  // step.
  return true;
}

void Lane::finish_fine_step(const circuit::SupplyNode::StepEnergy& energy) {
  const Seconds dt = config_->dt;
  const Seconds t = t_;
  mcu::Mcu& mcu = *mcu_;
  result_.harvested += energy.harvested;
  result_.consumed += energy.consumed;
  result_.dissipated += energy.dissipated;

  const Volts v_now = node_->voltage();
  mcu.supply_update(v_prev_, t, v_now, t + dt);
  mcu.advance(t, dt, v_now);

  if (governor_ != nullptr && t >= next_governor_) {
    if (mcu.state() != mcu::McuState::off) {
      governor_->control(mcu, v_now, t);
    }
    next_governor_ = t + governor_->period();
  }

  if (mcu.state() != last_state_) {
    result_.transitions.push_back(StateChange{t + dt, last_state_, mcu.state(), v_now});
    last_state_ = mcu.state();
  }

  if (probing_ && t >= next_probe_) {
    probe_vcc_.push_back(v_now);
    probe_freq_.push_back(mcu.frequency() / 1e6);
    probe_state_.push_back(static_cast<double>(mcu.state()));
    probe_power_.push_back(mcu.current_draw(v_now, t) * v_now * 1e3);
    next_probe_ += config_->probe_interval;
  }

  ++step_;
  ++result_.fine_steps;
  t_ = dt * static_cast<double>(step_);
  v_prev_ = v_now;

  if (config_->stop_on_completion && mcu.metrics().completed) stopped_ = true;
}

SimResult Lane::finalize() {
  SimResult& result = result_;
  result.end_time = t_;
  if (probe_vcc_.size() >= 2) {
    // Samples are end-of-step values: the k-th sample was captured at the
    // end of the step that began at k * probe_interval, so the waveforms
    // start at t = dt, not t = 0.
    const Seconds t0 = config_->dt;
    const Seconds interval = config_->probe_interval;
    result.probes.add("vcc", trace::Waveform(t0, interval, std::move(probe_vcc_)));
    result.probes.add("freq_mhz", trace::Waveform(t0, interval, std::move(probe_freq_)));
    result.probes.add("state", trace::Waveform(t0, interval, std::move(probe_state_)));
    result.probes.add("power_mw", trace::Waveform(t0, interval, std::move(probe_power_)));
  }
  result.stored_final = node_->stored_energy();
  result.mcu = mcu_->metrics();
  result.nvm_torn_writes = mcu_->nvm().torn_writes();
  result.nvm_commits = mcu_->nvm().commits();
  return std::move(result);
}

}  // namespace edc::sim
