#include "edc/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "edc/common/check.h"
#include "edc/sim/quiescent_engine.h"
#include "edc/sim/step_lattice.h"

namespace edc::sim {

Simulator::Simulator(const SimConfig& config, circuit::SupplyNode& node,
                     const circuit::SupplyDriver& driver, mcu::Mcu& mcu)
    : config_(config), node_(&node), driver_(&driver), mcu_(&mcu) {
  EDC_CHECK(config.dt > 0.0, "dt must be positive");
  EDC_CHECK(config.t_end > 0.0, "t_end must be positive");
  EDC_CHECK(config.node_substeps >= 1, "need at least one substep");
}

template <bool kProbing, bool kGoverned>
void Simulator::run_loop(SimResult& result) {
  const Seconds dt = config_.dt;
  const Seconds t_end = config_.t_end;
  const int substeps = config_.node_substeps;
  circuit::SupplyNode& node = *node_;
  const circuit::SupplyDriver& driver = *driver_;
  mcu::Mcu& mcu = *mcu_;

  // Probe and governor bookkeeping is hoisted out of the hot loop:
  // preallocated channel buffers and next-event times held in locals, with
  // the inner loop compiled separately for each (probing, governed)
  // combination so the disabled features cost nothing per step.
  std::vector<double> probe_vcc, probe_freq, probe_state, probe_power;
  Seconds next_probe = 0.0;
  const Seconds probe_interval = config_.probe_interval;
  if constexpr (kProbing) {
    // At most one sample is taken per step, so the sample count is bounded
    // by the step count even when probe_interval < dt.
    const auto capacity =
        static_cast<std::size_t>(std::min(t_end / probe_interval, t_end / dt)) + 2;
    probe_vcc.reserve(capacity);
    probe_freq.reserve(capacity);
    probe_state.reserve(capacity);
    probe_power.reserve(capacity);
  }
  Seconds next_governor = 0.0;

  Joules harvested = 0.0, consumed = 0.0, dissipated = 0.0;
  // The loop time lives on an exact step lattice (t == dt * step) instead
  // of accumulating t += dt: summation order then cannot drift the time
  // base, so a macro run that jumps spans of whole steps lands on exactly
  // the same instants — and the same probe/governor/termination schedule —
  // as the fine run it must stay in lock-step with.
  std::uint64_t step = 0;
  Seconds t = 0.0;
  Volts v_prev = node.voltage();
  mcu::McuState last_state = mcu.state();

  // All idle-regime planning — the bit-exact dead-node skip, the MCU-off
  // decay spans, and the comparator-watched sleep spans — lives in the one
  // quiescent engine; this loop only folds its own deadlines (t_end, the
  // governor period) into the span cap and replays probe samples from the
  // analytic trajectory so schedules stay in lock-step with the fine path.
  const QuiescentEngine engine(config_, node, driver, mcu);
  const bool engine_enabled = engine.enabled();

  while (t < t_end) {
    if (engine_enabled) {
      std::uint64_t max_steps = steps_starting_before(step, t_end, dt);
      if constexpr (kGoverned) {
        max_steps = std::min(max_steps, steps_starting_before(step, next_governor, dt));
      }
      if (const auto span = engine.plan(t, max_steps)) {
        // A planned span must make progress: a zero-step span would spin
        // this loop forever at the same t (the plan/fine-step livelock a
        // zero-length quiet-index sliver once caused). Fail loudly instead.
        EDC_CHECK(span->steps >= 1, "quiescent span must cover >= 1 step");
        if constexpr (kProbing) {
          // Replay the fine path's probe schedule: a sample lands on every
          // skipped step whose start is at or past the deadline, carrying
          // the end-of-step analytic voltage.
          const double freq_mhz = mcu.frequency() / 1e6;
          const auto state_channel = static_cast<double>(mcu.state());
          double k_min = 0.0;
          while (true) {
            double k = std::ceil((next_probe - t) / dt);
            if (k < k_min) k = k_min;
            if (k >= static_cast<double>(span->steps)) break;
            const Volts v_probe = span->trajectory.voltage_at((k + 1.0) * dt);
            probe_vcc.push_back(v_probe);
            probe_freq.push_back(freq_mhz);
            probe_state.push_back(state_channel);
            probe_power.push_back(span->draw * v_probe * 1e3);
            next_probe += probe_interval;
            k_min = k + 1.0;
          }
        }
        const Seconds jumped = static_cast<double>(span->steps) * dt;
        mcu.note_quiescent_span(jumped, span->consumed);
        harvested += span->harvested;  // nonzero for source spans only
        consumed += span->consumed;
        dissipated += span->dissipated;
        node.set_voltage(span->v_end);
        step += span->steps;
        t = dt * static_cast<double>(step);
        result.span_steps += span->steps;
        ++result.spans;
        v_prev = span->v_end;
        // Spans never cover a governor deadline (max_steps stops at it), so
        // the re-schedule — like every other discrete action — happens on a
        // fine step.
        continue;
      }
    }

    const auto energy = node.step(t, dt, driver, mcu, substeps);
    harvested += energy.harvested;
    consumed += energy.consumed;
    dissipated += energy.dissipated;

    const Volts v_now = node.voltage();
    mcu.supply_update(v_prev, t, v_now, t + dt);
    mcu.advance(t, dt, v_now);

    if constexpr (kGoverned) {
      if (t >= next_governor) {
        if (mcu.state() != mcu::McuState::off) {
          governor_->control(mcu, v_now, t);
        }
        next_governor = t + governor_->period();
      }
    }

    if (mcu.state() != last_state) {
      result.transitions.push_back(StateChange{t + dt, last_state, mcu.state(), v_now});
      last_state = mcu.state();
    }

    if constexpr (kProbing) {
      if (t >= next_probe) {
        probe_vcc.push_back(v_now);
        probe_freq.push_back(mcu.frequency() / 1e6);
        probe_state.push_back(static_cast<double>(mcu.state()));
        probe_power.push_back(mcu.current_draw(v_now, t) * v_now * 1e3);
        next_probe += probe_interval;
      }
    }

    ++step;
    ++result.fine_steps;
    t = dt * static_cast<double>(step);
    v_prev = v_now;

    if (config_.stop_on_completion && mcu.metrics().completed) break;
  }

  result.end_time = t;
  result.harvested = harvested;
  result.consumed = consumed;
  result.dissipated = dissipated;

  if constexpr (kProbing) {
    if (probe_vcc.size() >= 2) {
      // Samples are end-of-step values: the k-th sample was captured at the
      // end of the step that began at k * probe_interval, so the waveforms
      // start at t = dt, not t = 0.
      const Seconds t0 = dt;
      result.probes.add("vcc", trace::Waveform(t0, probe_interval, std::move(probe_vcc)));
      result.probes.add("freq_mhz",
                        trace::Waveform(t0, probe_interval, std::move(probe_freq)));
      result.probes.add("state",
                        trace::Waveform(t0, probe_interval, std::move(probe_state)));
      result.probes.add("power_mw",
                        trace::Waveform(t0, probe_interval, std::move(probe_power)));
    }
  }
}

SimResult Simulator::run() {
  SimResult result;
  result.stored_initial = node_->stored_energy();

  const bool probing = config_.probe_interval > 0.0;
  const bool governed = governor_ != nullptr;
  if (probing) {
    if (governed) {
      run_loop<true, true>(result);
    } else {
      run_loop<true, false>(result);
    }
  } else {
    if (governed) {
      run_loop<false, true>(result);
    } else {
      run_loop<false, false>(result);
    }
  }

  result.stored_final = node_->stored_energy();
  result.mcu = mcu_->metrics();
  result.nvm_torn_writes = mcu_->nvm().torn_writes();
  result.nvm_commits = mcu_->nvm().commits();
  return result;
}

}  // namespace edc::sim
