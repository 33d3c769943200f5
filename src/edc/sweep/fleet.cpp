#include "edc/sweep/fleet.h"

#include <string>
#include <utility>
#include <vector>

namespace edc::sweep {

Grid fleet_grid(const spec::FleetSpec& fleet) {
  Grid grid(spec::fleet_node_spec(fleet, 0));  // validates the fleet
  std::vector<AxisValue> nodes;
  nodes.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    nodes.push_back({"node" + std::to_string(i),
                     [lowered = spec::fleet_node_spec(fleet, i)](spec::SystemSpec& s) {
                       s = lowered;
                     }});
  }
  grid.axis("node", std::move(nodes));
  return grid;
}

}  // namespace edc::sweep
