// Value-semantic multi-node system description.
//
// A FleetSpec scales SystemSpec's node-count-1 world to node-count-N: an
// ordered vector of per-node SystemSpecs plus a declarative CouplingSpec
// describing what the nodes share. The first coupling family is the
// shared-RF scenario from the harvesting-sensor-network literature (see
// PAPERS.md): one reader field serves the whole fleet, each node sees it
// through its own inverse-square-law path gain, and a duty-cycled
// basestation schedule opens per-node harvest windows — one node's
// transmission slot is another node's harvest opportunity.
//
// The design principle is *lowering*: coupling is declarative data, not a
// runtime broadcast bus. fleet_node_spec(fleet, i) folds the coupling into
// node i's SystemSpec by substituting a fully serializable CoupledRfPower
// source (shared field params + seed, per-node gain and window). Because
// the field's seeded burst schedule is a pure function of the coupling
// spec, every node reconstructs bit-identical per-substep field samples —
// the declarative realization of the batch kernel's once-per-substep
// DriverSample broadcast (circuit/supply_driver.h) — while each lowered
// node remains an ordinary, independently cacheable sweep grid point. That
// is what lets the whole Cache/Runner/Search stack work unchanged on
// fleet points (see sweep/fleet.h).
//
//   spec::FleetSpec fleet;
//   fleet.nodes.assign(3, node_template);          // sources left unset
//   spec::SharedRfCoupling rf;
//   rf.gains = {1.0, 0.5, 0.25};                    // distance attenuation
//   rf.window_period = 3.0; rf.window_duty = 1.0/3; // slotted basestation
//   rf.phases = {0.0, 1.0, 2.0};                    // staggered slots
//   fleet.coupling = rf;
//   sweep::Runner().run(sweep::fleet_grid(fleet));  // row i is node i
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "edc/spec/system_spec.h"

namespace edc::spec {

/// Shared-RF-field coupling: the whole fleet harvests one reader field.
/// `field` + `seed` are fleet-wide (every node observes the same seeded
/// burst schedule); `gains` and `phases` are per-node.
struct SharedRfCoupling {
  trace::RfFieldSource::Params field;
  std::uint64_t seed = 1;
  Seconds horizon = 60.0;
  /// Per-node path gain (inverse-square-law distance attenuation).
  /// Required: size == FleetSpec::nodes.size(), every entry >= 0.
  std::vector<double> gains;
  /// Duty-cycled basestation harvest windows; period 0 = always open.
  Seconds window_period = 0.0;
  double window_duty = 1.0;
  /// Per-node window phase offsets (TDMA-style slot staggering). Empty =
  /// all zero; otherwise size == nodes.size(), every entry >= 0.
  std::vector<Seconds> phases;
};

/// One-of coupling descriptor; std::monostate = uncoupled (each node keeps
/// its own source and any per-node lattice).
using CouplingSpec = std::variant<std::monostate, SharedRfCoupling>;

struct FleetSpec {
  std::vector<SystemSpec> nodes;
  CouplingSpec coupling;

  [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }
  [[nodiscard]] bool coupled() const noexcept {
    return !std::holds_alternative<std::monostate>(coupling);
  }
};

/// Validates the fleet's cross-node invariants; throws std::invalid_argument
/// (EDC_CHECK) on violation:
///  * at least one node;
///  * shared-RF coupling: gains sized to the fleet and non-negative, phases
///    empty or sized to the fleet, a positive horizon, a sane window;
///  * coupled nodes leave their own source unset (std::monostate) — the
///    coupling supplies it via lowering;
///  * coupled nodes agree on the shared dt lattice (sim.dt, node_substeps,
///    t_end), so every node samples the field at the same substep instants.
void validate_fleet(const FleetSpec& fleet);

/// Lowers node i to its effective single-node SystemSpec: a copy of
/// nodes[i] with the coupling folded in (shared-RF coupling substitutes a
/// CoupledRfPower source carrying the fleet field plus node i's gain and
/// window). Uncoupled fleets return nodes[i] unchanged — which is what
/// makes an N=1 uncoupled fleet bit-identical to the scalar path.
/// Validates the fleet first.
[[nodiscard]] SystemSpec fleet_node_spec(const FleetSpec& fleet, std::size_t i);

/// The canonical shared-RF example fleet used by design_query --fleet-demo,
/// the fleet tests and the README: `node_count` identical sense nodes under
/// adaptive buffering, harvesting one jittered reader field through
/// 1/d^2 gains and staggered basestation slots.
[[nodiscard]] FleetSpec example_rf_fleet(std::size_t node_count = 3);

}  // namespace edc::spec
