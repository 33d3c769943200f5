#include "edc/sim/batch_kernel.h"

#include <utility>

#include "edc/common/check.h"
#include "edc/sim/lane.h"

namespace edc::sim {

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

std::vector<SimResult> BatchKernel::run() {
  const Seconds dt = lanes_[0].config.dt;
  const int substeps = lanes_[0].config.node_substeps;
  const std::size_t n = lanes_.size();

  // Lanes point at lanes_' configs, so lanes_ must not reallocate.
  std::vector<Lane> lanes;
  lanes.reserve(n);
  for (BatchLane& parts : lanes_) {
    lanes.emplace_back(parts.config, *parts.node, *parts.driver, *parts.mcu,
                       parts.governor);
  }

  // Gather/scatter scratch for the compact fine set of each round.
  std::vector<std::size_t> fine;
  fine.reserve(n);
  std::vector<double> v(n), cap(n), bleed(n), i_load(n);
  std::vector<double> e_harvested(n), e_consumed(n), e_dissipated(n);

  while (true) {
    // Lockstep front: only lanes at the minimum lattice step act this
    // round; span-jumped lanes wait for the rest to catch up.
    bool any_live = false;
    std::uint64_t front = 0;
    for (const Lane& lane : lanes) {
      if (!lane.live()) continue;
      if (!any_live || lane.step() < front) front = lane.step();
      any_live = true;
    }
    if (!any_live) break;

    fine.clear();
    for (std::size_t i = 0; i < n; ++i) {
      Lane& lane = lanes[i];
      if (!lane.live() || lane.step() != front) continue;
      // A booked span jumps the lane ahead; it waits for the front.
      if (!lane.book_span()) fine.push_back(i);
    }
    // Every front lane booked a span: the front moved, so the next round
    // makes progress without a fine step.
    if (fine.empty()) continue;

    const Seconds t = dt * static_cast<double>(front);
    const std::size_t m = fine.size();
    for (std::size_t k = 0; k < m; ++k) {
      const BatchLane& parts = lanes_[fine[k]];
      const circuit::SupplyNode& node = *parts.node;
      v[k] = node.voltage();
      cap[k] = node.capacitance();
      bleed[k] = node.bleed();
      // The MCU's draw depends only on its discrete state, which nothing
      // advances during the node step — hoist one sample per lane per step
      // (the scalar path re-samples it per substep with the same value).
      i_load[k] = parts.mcu->current_draw(v[k], t);
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
    circuit::SupplyNode::step_lanes(t, dt, *lanes_[fine[0]].driver, substeps, block);

    for (std::size_t k = 0; k < m; ++k) {
      lanes_[fine[k]].node->set_voltage(v[k]);
      lanes[fine[k]].finish_fine_step({e_harvested[k], e_consumed[k], e_dissipated[k]});
    }
  }

  std::vector<SimResult> results;
  results.reserve(n);
  for (Lane& lane : lanes) results.push_back(lane.finalize());
  return results;
}

}  // namespace edc::sim
