#include "edc/sim/simulator.h"

#include "edc/common/check.h"
#include "edc/sim/lane.h"

namespace edc::sim {

Simulator::Simulator(const SimConfig& config, circuit::SupplyNode& node,
                     const circuit::SupplyDriver& driver, mcu::Mcu& mcu)
    : config_(config), node_(&node), driver_(&driver), mcu_(&mcu) {
  EDC_CHECK(config.dt > 0.0, "dt must be positive");
  EDC_CHECK(config.t_end > 0.0, "t_end must be positive");
  EDC_CHECK(config.node_substeps >= 1, "need at least one substep");
}

SimResult Simulator::run() {
  Lane lane(config_, *node_, *driver_, *mcu_, governor_);
  while (lane.live()) {
    if (lane.book_span()) continue;
    lane.finish_fine_step(
        node_->step(lane.time(), config_.dt, *driver_, *mcu_, config_.node_substeps));
  }
  return lane.finalize();
}

}  // namespace edc::sim
