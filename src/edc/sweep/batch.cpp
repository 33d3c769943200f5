#include "edc/sweep/batch.h"

#include <cmath>
#include <variant>

#include "edc/spec/serialize.h"

namespace edc::sweep {

std::vector<double> amortize_lane_micros(double wall_micros, std::size_t lanes) {
  if (lanes == 0) return {};
  const auto total = static_cast<long long>(
      std::llround(wall_micros < 0.0 ? 0.0 : wall_micros));
  const auto n = static_cast<long long>(lanes);
  const long long base = total / n;
  const long long extra = total % n;
  std::vector<double> per_lane(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    per_lane[k] =
        static_cast<double>(base + (static_cast<long long>(k) < extra ? 1 : 0));
  }
  return per_lane;
}

std::optional<std::string> batch_group_key(const spec::SystemSpec& spec) {
  if (!spec::has_source(spec.source) ||
      std::holds_alternative<spec::CustomVoltageSource>(spec.source) ||
      std::holds_alternative<spec::CustomPowerSource>(spec.source)) {
    return std::nullopt;
  }
  // Embed the shared-lattice axes in an otherwise default spec so the
  // canonical serializer yields one stable key text per lockstep group.
  spec::SystemSpec key;
  key.source = spec.source;
  key.rectifier = spec.rectifier;
  key.harvester = spec.harvester;
  key.sim.dt = spec.sim.dt;
  key.sim.node_substeps = spec.sim.node_substeps;
  if (!spec::is_cacheable(key)) return std::nullopt;
  return spec::serialize(key);
}

}  // namespace edc::sweep
