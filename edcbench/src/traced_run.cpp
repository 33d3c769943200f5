#include "traced_run.h"

#include <map>
#include <optional>
#include <stdexcept>

#include "edc/circuit/supply_node.h"
#include "edc/sim/batch_kernel.h"
#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/batch.h"

namespace edcbench {

namespace spec = edc::spec;
namespace sweep = edc::sweep;
using edc::sim::SimResult;

namespace {

using Scope = Tracer::Scope;

sweep::Point traced_point(const sweep::Grid& grid, std::size_t i,
                          const std::string& family, Tracer& tracer) {
  const Scope scope(tracer, "sweep.grid_point", family);
  return grid.point(i);
}

/// The Runner's scalar path for one point: instantiate, then run.
SimResult traced_simulate(const spec::SystemSpec& point, const std::string& family,
                          Tracer& tracer) {
  std::optional<edc::core::EnergyDrivenSystem> system;
  {
    const Scope scope(tracer, "spec.instantiate", family);
    system.emplace(instantiate_traced(point, tracer));
  }
  const Scope scope(tracer, "sim.run", family);
  return system->run();
}

std::string traced_key(const spec::SystemSpec& point, const std::string& family,
                       Tracer& tracer, TracedCounts& counts) {
  std::string key;
  {
    const Scope scope(tracer, "spec.serialize", family);
    key = spec::serialize(point);
  }
  counts.key_bytes += key.size();
  const Scope scope(tracer, "spec.hash", family);
  (void)spec::fnv1a64(key);
  return key;
}

std::string traced_encode(const SimResult& row, const std::string& family,
                          Tracer& tracer, TracedCounts& counts) {
  const Scope scope(tracer, "sim.result_encode", family);
  std::string bytes = edc::sim::serialize_result(row);
  counts.result_bytes += bytes.size();
  return bytes;
}

void traced_store(sweep::Cache& cache, const std::string& key, const SimResult& row,
                  const std::string& family, Tracer& tracer) {
  const Scope scope(tracer, "sweep.cache_store", family);
  cache.store(key, row);
}

/// A warm hit: Cache::load, then the decode of the row's bytes on its own
/// (Cache::load decodes inside; the second decode prices result_io alone).
SimResult traced_warm_hit(sweep::Cache& cache, const std::string& key,
                          const std::string& bytes, const std::string& family,
                          Tracer& tracer) {
  std::optional<sweep::CachedPoint> hit;
  {
    const Scope scope(tracer, "sweep.cache_load", family);
    hit = cache.load(key);
  }
  if (!hit.has_value()) throw std::runtime_error(family + ": warm leg missed the cache");
  const Scope scope(tracer, "sim.result_decode", family);
  (void)edc::sim::parse_result(bytes);
  return std::move(hit->result);
}

/// sweep::run_batched's execution of one grid: group by batch_group_key,
/// chunk each group into balanced chunks of at most 16 lanes, step chunks
/// through BatchKernel and singletons through the scalar path.
UnitResult traced_batched(const Family& family, Tracer& tracer, TracedCounts& counts) {
  const std::string& name = family.name;
  UnitResult unit;
  unit.name = name;
  unit.rows.resize(family.grid.size());
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::size_t> scalar;
  for (std::size_t i = 0; i < family.grid.size(); ++i) {
    const sweep::Point point = traced_point(family.grid, i, name, tracer);
    std::optional<std::string> key;
    {
      const Scope scope(tracer, "sweep.group_key", name);
      key = sweep::batch_group_key(point.spec);
    }
    if (key.has_value()) {
      groups[*key].push_back(i);
    } else {
      scalar.push_back(i);
    }
  }
  constexpr std::size_t kLaneCap = 16;
  std::vector<std::vector<std::size_t>> chunks;
  for (auto& [key, members] : groups) {
    (void)key;
    if (members.size() < 2) {
      scalar.insert(scalar.end(), members.begin(), members.end());
      continue;
    }
    const std::size_t n = members.size();
    const std::size_t count = (n + kLaneCap - 1) / kLaneCap;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < count; ++c) {
      const std::size_t size = n / count + (c < n % count ? 1 : 0);
      chunks.emplace_back(members.begin() + static_cast<std::ptrdiff_t>(begin),
                          members.begin() + static_cast<std::ptrdiff_t>(begin + size));
      begin += size;
    }
  }
  for (const auto& chunk : chunks) {
    counts.chunk_lanes.push_back(chunk.size());
    std::vector<edc::core::EnergyDrivenSystem> systems;
    systems.reserve(chunk.size());
    for (const std::size_t i : chunk) {
      const sweep::Point point = traced_point(family.grid, i, name, tracer);
      const Scope scope(tracer, "spec.instantiate", name);
      systems.push_back(instantiate_traced(point.spec, tracer));
    }
    std::vector<edc::sim::BatchLane> lanes;
    for (edc::core::EnergyDrivenSystem& system : systems) {
      edc::sim::BatchLane lane;
      lane.config = system.sim_config();
      lane.node = &system.node();
      lane.driver = &system.driver();
      lane.mcu = &system.mcu();
      lane.governor = system.governor();
      lanes.push_back(lane);
    }
    std::vector<SimResult> results;
    {
      const Scope scope(tracer, "sim.batch_run", name);
      results = edc::sim::BatchKernel(std::move(lanes)).run();
    }
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      unit.rows[chunk[k]] = std::move(results[k]);
    }
  }
  for (const std::size_t i : scalar) {
    const sweep::Point point = traced_point(family.grid, i, name, tracer);
    unit.rows[i] = traced_simulate(point.spec, name, tracer);
  }
  return unit;
}

}  // namespace

TracedJob run_traced_job(Workload workload, const Setup& setup,
                         const JobResult& untraced_cold, const std::string& cache_dir,
                         Tracer& tracer) {
  TracedJob job;
  sweep::Cache cache(cache_dir);
  std::vector<std::vector<std::string>> bytes;  // per unit, per row

  if (!setup.families.empty()) {
    tracer.set_run(1);
    {
      const Scope leg(tracer, "bench.cold_leg");
      for (const Family& family : setup.families) {
        if (workload == Workload::fine_batch_sweep) {
          job.cold.push_back(traced_batched(family, tracer, job.counts));
          continue;
        }
        UnitResult unit;
        unit.name = family.name;
        for (std::size_t i = 0; i < family.grid.size(); ++i) {
          const sweep::Point point = traced_point(family.grid, i, family.name, tracer);
          unit.rows.push_back(traced_simulate(point.spec, family.name, tracer));
        }
        job.cold.push_back(std::move(unit));
      }
    }
    tracer.set_run(2);
    {
      const Scope leg(tracer, "bench.cache_fill");
      for (std::size_t f = 0; f < setup.families.size(); ++f) {
        const Family& family = setup.families[f];
        bytes.emplace_back();
        for (std::size_t i = 0; i < family.grid.size(); ++i) {
          const sweep::Point point = traced_point(family.grid, i, family.name, tracer);
          const std::string key = traced_key(point.spec, family.name, tracer, job.counts);
          const SimResult& row = job.cold[f].rows[i];
          bytes[f].push_back(traced_encode(row, family.name, tracer, job.counts));
          traced_store(cache, key, row, family.name, tracer);
        }
      }
    }
    tracer.set_run(3);
    const Scope leg(tracer, "bench.warm_leg");
    for (std::size_t f = 0; f < setup.families.size(); ++f) {
      const Family& family = setup.families[f];
      UnitResult unit;
      unit.name = family.name;
      for (std::size_t i = 0; i < family.grid.size(); ++i) {
        const sweep::Point point = traced_point(family.grid, i, family.name, tracer);
        const std::string key = traced_key(point.spec, family.name, tracer, job.counts);
        unit.rows.push_back(traced_warm_hit(cache, key, bytes[f][i], family.name, tracer));
      }
      job.warm.push_back(std::move(unit));
    }
    return job;
  }

  tracer.set_run(1);
  {
    const Scope leg(tracer, "bench.cold_leg");
    for (std::size_t q = 0; q < setup.queries.size(); ++q) {
      const Query& query = setup.queries[q];
      UnitResult unit;
      unit.name = query.name;
      bytes.emplace_back();
      if (untraced_cold[q].outcome.has_value()) {
        for (const sweep::SearchProbe& probe : untraced_cold[q].outcome->probes) {
          for (std::size_t v = 0; v < query.variant_count(); ++v) {
            const spec::SystemSpec point = query.probe_spec(probe.x, v);
            const std::string key = traced_key(point, query.name, tracer, job.counts);
            std::optional<sweep::CachedPoint> hit;
            {
              const Scope scope(tracer, "sweep.cache_load", query.name);
              hit = cache.load(key);
            }
            SimResult row = hit.has_value() ? std::move(hit->result)
                                            : traced_simulate(point, query.name, tracer);
            bytes[q].push_back(traced_encode(row, query.name, tracer, job.counts));
            traced_store(cache, key, row, query.name, tracer);
            unit.rows.push_back(std::move(row));
          }
        }
      }
      job.cold.push_back(std::move(unit));
    }
  }
  tracer.set_run(3);
  const Scope leg(tracer, "bench.warm_leg");
  for (std::size_t q = 0; q < setup.queries.size(); ++q) {
    const Query& query = setup.queries[q];
    UnitResult unit;
    unit.name = query.name;
    std::size_t row = 0;
    if (untraced_cold[q].outcome.has_value()) {
      for (const sweep::SearchProbe& probe : untraced_cold[q].outcome->probes) {
        for (std::size_t v = 0; v < query.variant_count(); ++v, ++row) {
          const std::string key =
              traced_key(query.probe_spec(probe.x, v), query.name, tracer, job.counts);
          unit.rows.push_back(traced_warm_hit(cache, key, bytes[q][row], query.name, tracer));
        }
      }
    }
    job.warm.push_back(std::move(unit));
  }
  return job;
}

StepCost replay_node_steps(const spec::SystemSpec& point) {
  auto system = spec::instantiate(point);
  const edc::circuit::SupplyDriver& driver = system.driver();
  const double dt = point.sim.dt;
  const int substeps = point.sim.node_substeps;
  constexpr int kSteps = 20000;
  constexpr std::size_t kLanes = 16;
  const edc::circuit::ResistiveLoad load(5000.0);
  std::vector<double> step_ns;
  std::vector<double> lanes_ns;
  double sink = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    edc::circuit::SupplyNode node(point.storage.capacitance, 0.0);
    if (point.storage.bleed > 0.0) node.set_bleed(point.storage.bleed);
    auto start = Clock::now();
    for (int k = 0; k < kSteps; ++k) {
      node.step(dt * static_cast<double>(k), dt, driver, load, substeps);
    }
    step_ns.push_back(seconds_since(start) * 1e9 / kSteps);
    sink += node.voltage();

    std::vector<double> v(kLanes, 0.0), capacitance(kLanes),
        bleed(kLanes, point.storage.bleed), i_load(kLanes, 1e-4), harvested(kLanes),
        consumed(kLanes), dissipated(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      capacitance[l] = point.storage.capacitance * (1.0 + 0.1 * static_cast<double>(l));
    }
    const edc::circuit::SupplyNode::SoaLanes lanes{kLanes,          v.data(),
                                                   capacitance.data(), bleed.data(),
                                                   i_load.data(),   harvested.data(),
                                                   consumed.data(), dissipated.data()};
    start = Clock::now();
    for (int k = 0; k < kSteps; ++k) {
      edc::circuit::SupplyNode::step_lanes(dt * static_cast<double>(k), dt, driver,
                                           substeps, lanes);
    }
    lanes_ns.push_back(seconds_since(start) * 1e9 / kSteps);
    sink += v[0];
  }
  if (!(sink >= 0.0)) throw std::runtime_error("node replay produced a negative voltage");
  return {median(step_ns), median(lanes_ns)};
}

}  // namespace edcbench
