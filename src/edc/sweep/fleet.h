// A fleet as an ordinary sweep grid: FleetSpec in, Grid out.
//
// Because coupling is lowered into each node's spec (spec/fleet_spec.h), a
// fleet is a one-axis grid whose points are the lowered per-node
// SystemSpecs, and it runs the one way every grid runs:
//
//   const spec::FleetSpec fleet = spec::example_rf_fleet(3);
//   sweep::RunnerOptions options;
//   options.cache = &cache;
//   sweep::RunReport report;
//   const auto nodes = sweep::Runner(options).run(sweep::fleet_grid(fleet), &report);
//   // nodes[i] is node i; report.fresh_count() == 3 cold, == 0 on the warm rerun
//
// The whole Cache/Runner stack applies unchanged: warm reruns replay every
// node from the cache (the keys are the lowered node specs), and batching
// and threads apply.
#pragma once

#include "edc/spec/fleet_spec.h"
#include "edc/sweep/grid.h"

namespace edc::sweep {

/// The fleet as a grid with one "node" axis (labels "node<i>") over the
/// lowered per-node specs: grid.point(i).spec == spec::fleet_node_spec(fleet, i).
/// Each node value assigns the whole lowered spec, so axes added after it
/// sweep a design parameter across the fleet, while an axis applied before
/// it would be overwritten. Validates the fleet (throws
/// std::invalid_argument, see spec::validate_fleet).
[[nodiscard]] Grid fleet_grid(const spec::FleetSpec& fleet);

}  // namespace edc::sweep
