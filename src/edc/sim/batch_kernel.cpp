#include "edc/sim/batch_kernel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "edc/common/check.h"
#include "edc/sim/step_lattice.h"
#include "edc/trace/waveform.h"

namespace edc::sim {

// The per-lane mirror of the scalar run_loop's locals. The batch loop
// interleaves the same per-step sequence across lanes, so each lane's
// trajectory through this state is exactly the scalar loop's — that is the
// whole bit-identity argument.
struct BatchKernel::LaneState {
  BatchLane* parts = nullptr;
  const QuiescentEngine* engine = nullptr;  // null when planning is disabled
  SimResult result;
  std::vector<double> probe_vcc, probe_freq, probe_state, probe_power;
  Seconds next_probe = 0.0;
  Seconds next_governor = 0.0;
  bool probing = false;
  bool governed = false;
  Joules harvested = 0.0;
  Joules consumed = 0.0;
  Joules dissipated = 0.0;
  std::uint64_t step = 0;
  Seconds t = 0.0;
  Volts v_prev = 0.0;
  mcu::McuState last_state = mcu::McuState::off;
  bool active = true;
};

BatchKernel::BatchKernel(std::vector<BatchLane> lanes) : lanes_(std::move(lanes)) {
  EDC_CHECK(!lanes_.empty(), "batch needs at least one lane");
  const Seconds dt = lanes_[0].config.dt;
  const int substeps = lanes_[0].config.node_substeps;
  EDC_CHECK(dt > 0.0, "dt must be positive");
  EDC_CHECK(substeps >= 1, "need at least one substep");
  for (const BatchLane& lane : lanes_) {
    EDC_CHECK(lane.node != nullptr && lane.driver != nullptr && lane.mcu != nullptr,
              "lane is missing required parts");
    EDC_CHECK(lane.config.dt == dt, "lockstep lanes must share dt");
    EDC_CHECK(lane.config.node_substeps == substeps,
              "lockstep lanes must share node_substeps");
    EDC_CHECK(lane.config.t_end > 0.0, "t_end must be positive");
    EDC_CHECK(lane.driver->batchable(), "batch lanes need a batchable driver");
  }
}

void BatchKernel::book_span(LaneState& lane, const QuiescentSpan& span) const {
  BatchLane& parts = *lane.parts;
  const Seconds dt = parts.config.dt;
  mcu::Mcu& mcu = *parts.mcu;
  if (lane.probing) {
    // Replay the fine path's probe schedule from the analytic trajectory
    // (same code as the scalar loop's span booking).
    const Seconds probe_interval = parts.config.probe_interval;
    const double freq_mhz = mcu.frequency() / 1e6;
    const auto state_channel = static_cast<double>(mcu.state());
    double k_min = 0.0;
    while (true) {
      double k = std::ceil((lane.next_probe - lane.t) / dt);
      if (k < k_min) k = k_min;
      if (k >= static_cast<double>(span.steps)) break;
      const Volts v_probe = span.trajectory.voltage_at((k + 1.0) * dt);
      lane.probe_vcc.push_back(v_probe);
      lane.probe_freq.push_back(freq_mhz);
      lane.probe_state.push_back(state_channel);
      lane.probe_power.push_back(span.draw * v_probe * 1e3);
      lane.next_probe += probe_interval;
      k_min = k + 1.0;
    }
  }
  const Seconds jumped = static_cast<double>(span.steps) * dt;
  mcu.note_quiescent_span(jumped, span.consumed);
  lane.harvested += span.harvested;  // nonzero for source spans only
  lane.consumed += span.consumed;
  lane.dissipated += span.dissipated;
  parts.node->set_voltage(span.v_end);
  lane.step += span.steps;
  lane.t = dt * static_cast<double>(lane.step);
  lane.result.span_steps += span.steps;
  ++lane.result.spans;
  lane.v_prev = span.v_end;
}

void BatchKernel::post_step(LaneState& lane, Volts v_now) {
  BatchLane& parts = *lane.parts;
  const SimConfig& config = parts.config;
  const Seconds dt = config.dt;
  mcu::Mcu& mcu = *parts.mcu;
  const Seconds t = lane.t;

  mcu.supply_update(lane.v_prev, t, v_now, t + dt);
  mcu.advance(t, dt, v_now);

  if (lane.governed && t >= lane.next_governor) {
    if (mcu.state() != mcu::McuState::off) {
      parts.governor->control(mcu, v_now, t);
    }
    lane.next_governor = t + parts.governor->period();
  }

  if (mcu.state() != lane.last_state) {
    lane.result.transitions.push_back(
        StateChange{t + dt, lane.last_state, mcu.state(), v_now});
    lane.last_state = mcu.state();
  }

  if (lane.probing && t >= lane.next_probe) {
    lane.probe_vcc.push_back(v_now);
    lane.probe_freq.push_back(mcu.frequency() / 1e6);
    lane.probe_state.push_back(static_cast<double>(mcu.state()));
    lane.probe_power.push_back(mcu.current_draw(v_now, t) * v_now * 1e3);
    lane.next_probe += config.probe_interval;
  }

  ++lane.step;
  ++lane.result.fine_steps;
  lane.t = dt * static_cast<double>(lane.step);
  lane.v_prev = v_now;

  if (config.stop_on_completion && mcu.metrics().completed) finalize(lane);
}

void BatchKernel::finalize(LaneState& lane) const {
  lane.active = false;
  BatchLane& parts = *lane.parts;
  SimResult& result = lane.result;
  result.end_time = lane.t;
  result.harvested = lane.harvested;
  result.consumed = lane.consumed;
  result.dissipated = lane.dissipated;
  if (lane.probing && lane.probe_vcc.size() >= 2) {
    // End-of-step samples: waveforms start at t = dt (see the scalar loop).
    const Seconds t0 = parts.config.dt;
    const Seconds probe_interval = parts.config.probe_interval;
    result.probes.add("vcc",
                      trace::Waveform(t0, probe_interval, std::move(lane.probe_vcc)));
    result.probes.add("freq_mhz",
                      trace::Waveform(t0, probe_interval, std::move(lane.probe_freq)));
    result.probes.add("state",
                      trace::Waveform(t0, probe_interval, std::move(lane.probe_state)));
    result.probes.add("power_mw",
                      trace::Waveform(t0, probe_interval, std::move(lane.probe_power)));
  }
  result.stored_final = parts.node->stored_energy();
  result.mcu = parts.mcu->metrics();
  result.nvm_torn_writes = parts.mcu->nvm().torn_writes();
  result.nvm_commits = parts.mcu->nvm().commits();
}

std::vector<SimResult> BatchKernel::run() {
  const Seconds dt = lanes_[0].config.dt;
  const int substeps = lanes_[0].config.node_substeps;
  const std::size_t n = lanes_.size();

  // Engines are constructed into a reserved vector: they keep pointers to
  // the lane configs (and the QuiescentEngine itself is referenced by
  // LaneState), so neither lanes_ nor this vector may reallocate.
  std::vector<QuiescentEngine> engines;
  engines.reserve(n);
  std::vector<LaneState> states(n);
  for (std::size_t i = 0; i < n; ++i) {
    BatchLane& parts = lanes_[i];
    engines.emplace_back(parts.config, *parts.node, *parts.driver, *parts.mcu);
    LaneState& lane = states[i];
    lane.parts = &parts;
    lane.engine = engines.back().enabled() ? &engines.back() : nullptr;
    lane.result.stored_initial = parts.node->stored_energy();
    lane.probing = parts.config.probe_interval > 0.0;
    lane.governed = parts.governor != nullptr;
    if (lane.probing) {
      const auto capacity =
          static_cast<std::size_t>(std::min(parts.config.t_end / parts.config.probe_interval,
                                            parts.config.t_end / dt)) +
          2;
      lane.probe_vcc.reserve(capacity);
      lane.probe_freq.reserve(capacity);
      lane.probe_state.reserve(capacity);
      lane.probe_power.reserve(capacity);
    }
    lane.v_prev = parts.node->voltage();
    lane.last_state = parts.mcu->state();
  }

  // Gather/scatter scratch for the compact fine set of each round.
  std::vector<std::size_t> fine;
  fine.reserve(n);
  std::vector<double> v(n), cap(n), bleed(n), i_load(n);
  std::vector<double> e_harvested(n), e_consumed(n), e_dissipated(n);

  while (true) {
    // Lockstep front: only lanes at the minimum lattice step act this
    // round; span-jumped lanes wait for the rest to catch up.
    bool any_active = false;
    std::uint64_t front = 0;
    for (const LaneState& lane : states) {
      if (!lane.active) continue;
      if (!any_active || lane.step < front) front = lane.step;
      any_active = true;
    }
    if (!any_active) break;

    fine.clear();
    for (std::size_t i = 0; i < n; ++i) {
      LaneState& lane = states[i];
      if (!lane.active || lane.step != front) continue;
      const SimConfig& config = lane.parts->config;
      if (!(lane.t < config.t_end)) {
        finalize(lane);
        continue;
      }
      if (lane.engine != nullptr) {
        std::uint64_t max_steps = steps_starting_before(lane.step, config.t_end, dt);
        if (lane.governed) {
          max_steps =
              std::min(max_steps,
                       steps_starting_before(lane.step, lane.next_governor, dt));
        }
        if (const auto span = lane.engine->plan(lane.t, max_steps)) {
          book_span(lane, *span);
          continue;  // jumped ahead; waits for the lockstep front
        }
      }
      fine.push_back(i);
    }
    // Every front lane planned a span or finished: the front moved, so the
    // next round makes progress without a fine step.
    if (fine.empty()) continue;

    const Seconds t = dt * static_cast<double>(front);
    const std::size_t m = fine.size();
    for (std::size_t k = 0; k < m; ++k) {
      const LaneState& lane = states[fine[k]];
      const circuit::SupplyNode& node = *lane.parts->node;
      v[k] = node.voltage();
      cap[k] = node.capacitance();
      bleed[k] = node.bleed();
      // The MCU's draw depends only on its discrete state, which nothing
      // advances during the node step — hoist one sample per lane per step
      // (the scalar path re-samples it per substep with the same value).
      i_load[k] = lane.parts->mcu->current_draw(v[k], t);
    }

    circuit::SupplyNode::SoaLanes block;
    block.count = m;
    block.v = v.data();
    block.capacitance = cap.data();
    block.bleed = bleed.data();
    block.i_load = i_load.data();
    block.harvested = e_harvested.data();
    block.consumed = e_consumed.data();
    block.dissipated = e_dissipated.data();
    // Grouped lanes carry structurally identical drivers (the grouping
    // contract), so any lane's driver yields the shared source samples.
    circuit::SupplyNode::step_lanes(t, dt, *states[fine[0]].parts->driver, substeps,
                                    block);

    for (std::size_t k = 0; k < m; ++k) {
      LaneState& lane = states[fine[k]];
      lane.harvested += e_harvested[k];
      lane.consumed += e_consumed[k];
      lane.dissipated += e_dissipated[k];
      lane.parts->node->set_voltage(v[k]);
      post_step(lane, v[k]);
    }
  }

  std::vector<SimResult> results;
  results.reserve(n);
  for (LaneState& lane : states) results.push_back(std::move(lane.result));
  return results;
}

}  // namespace edc::sim
