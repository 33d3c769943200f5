#include "workloads.h"

#include <cmath>
#include <exception>
#include <limits>
#include <variant>

#include "common.h"
#include "edc/checkpoint/interrupt_policy.h"
#include "edc/spec/fleet_spec.h"
#include "edc/spec/serialize.h"
#include "edc/spec/trace_loaders.h"
#include "edc/trace/rng.h"
#include "tracing.h"

namespace edcbench {

namespace spec = edc::spec;
namespace sweep = edc::sweep;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "macro_scenarios") return Workload::macro_scenarios;
  if (name == "fine_batch_sweep") return Workload::fine_batch_sweep;
  if (name == "cached_queries") return Workload::cached_queries;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::macro_scenarios: return "macro_scenarios";
    case Workload::fine_batch_sweep: return "fine_batch_sweep";
    case Workload::cached_queries: return "cached_queries";
  }
  return "?";
}

spec::SystemSpec Query::probe_spec(double x, std::size_t v) const {
  spec::SystemSpec s = base;
  axis.set(s, x);
  if (!variants.empty()) variants[v].apply(s);
  return s;
}

namespace {

// ---- shared design points ------------------------------------------------

/// The Fig 7 hibernus design point: 47 uF node, 3 kOhm board bleed, Eq 4
/// margin sized for the bleed share.
edc::checkpoint::InterruptPolicy::Config fig7_policy_config() {
  edc::checkpoint::InterruptPolicy::Config config;
  config.margin = 2.2;
  config.restore_headroom = 0.35;
  return config;
}

spec::SystemSpec fig7_base(std::uint64_t workload_seed, const char* kind) {
  spec::SystemSpec s;
  s.storage.capacitance = 47e-6;
  s.storage.bleed = 3000.0;
  s.workload.kind = kind;
  s.workload.seed = workload_seed;
  s.policy = spec::Hibernus{fig7_policy_config()};
  s.sim.stop_on_completion = false;
  return s;
}

/// The Fig 8 design point: 47 uF node, 10 kOhm bleed, hibernus running
/// the standard "crc" workload (a registered kind keeps every point
/// cacheable), riding the whole source horizon.
spec::SystemSpec fig8_base(spec::SourceSpec source, double horizon) {
  spec::SystemSpec s;
  s.source = std::move(source);
  s.storage.capacitance = 47e-6;
  s.storage.bleed = 10000.0;
  s.workload.kind = "crc";
  s.workload.seed = 9;
  s.sim.t_end = horizon;
  s.sim.stop_on_completion = false;
  return s;
}

/// The Eq 5 design point: a leaky 10 uF node, so outages stay real across
/// the interruption-frequency axis.
spec::SystemSpec eq5_base(std::uint64_t workload_seed, bool macro_stepping) {
  spec::SystemSpec s;
  s.storage.capacitance = 10e-6;
  s.storage.bleed = 1000.0;
  s.workload.kind = "fft";
  s.workload.seed = workload_seed;
  s.sim.t_end = 20.0;
  s.sim.macro_stepping = macro_stepping;
  return s;
}

std::vector<std::uint64_t> consecutive(std::uint64_t first, std::size_t n) {
  std::vector<std::uint64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = first + i;
  return values;
}

/// A grid axis over the seed of the spec's (wind or RF) source.
template <typename Source>
std::vector<sweep::AxisValue> source_seed_axis(std::uint64_t first, std::size_t n) {
  std::vector<sweep::AxisValue> values;
  for (const std::uint64_t seed : consecutive(first, n)) {
    values.push_back({std::to_string(seed), [seed](spec::SystemSpec& s) {
                        std::get<Source>(s.source).seed = seed;
                      }});
  }
  return values;
}

sweep::SearchAxis capacitance_search_axis() {
  return {"capacitance (F)",
          [](spec::SystemSpec& s, double c) { s.storage.capacitance = c; },
          {}};
}

/// "No brown-out over the horizon": positive once the node rides it out.
double survives(double, const std::vector<edc::sim::SimResult>& rows) {
  return 0.5 - static_cast<double>(rows[0].mcu.brownouts);
}

std::vector<double> geometric(double lo, double hi, std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = lo * std::pow(hi / lo, static_cast<double>(i) /
                                           static_cast<double>(n - 1));
  }
  return values;
}

spec::VoltageTraceSource load_trace(const std::string& path, double series_resistance,
                                    Tracer* tracer) {
  std::optional<Tracer::Scope> span;
  if (tracer != nullptr) span.emplace(*tracer, "trace.csv_load");
  return spec::load_voltage_trace_csv(path, series_resistance);
}

// ---- macro_scenarios -------------------------------------------------------
// Per-family point counts keep every family above about a tenth of the
// job's wall time, so a change to any one scenario class shows in run_s.

std::vector<Family> macro_families(const Seeds& seeds, const InputFiles& files,
                                   Tracer* tracer) {
  std::vector<Family> families;

  {  // Fig 8 30 s wind survey over seeded gust schedules.
    spec::SystemSpec s =
        fig8_base(spec::WindSource{turbine(), seeds.wind, 30.0}, 30.0);
    s.sim.macro_stepping = true;
    sweep::Grid grid(s);
    grid.axis("wind seed", source_seed_axis<spec::WindSource>(seeds.wind, 8));
    families.push_back({"wind_survey", std::move(grid)});
  }
  {  // The governed, probed Fig 8 figure window.
    spec::SystemSpec s =
        fig8_base(spec::WindSource{turbine(), seeds.wind + 100, 6.0}, 6.0);
    s.sim.probe_interval = 1e-3;
    edc::neutral::McuDfsGovernor::Config governor;
    governor.v_ref = 2.9;
    governor.band = 0.2;
    governor.period = 2e-3;
    s.governor = governor;
    s.sim.macro_stepping = true;
    sweep::Grid grid(s);
    grid.axis("wind seed", source_seed_axis<spec::WindSource>(seeds.wind + 100, 5));
    families.push_back({"governed_fig8", std::move(grid)});
  }
  {  // Fig 7 gapped sine, replayed from the generated recorded trace.
    spec::SystemSpec s = fig7_base(seeds.workload, "fft-large");
    s.source = load_trace(files.gapped_csv, 50.0, tracer);
    s.sim.t_end = kTraceSeconds;
    s.sim.macro_stepping = true;
    sweep::Grid grid(s);
    grid.capacitance_axis({33e-6, 47e-6, 68e-6, 100e-6})
        .workload_seed_axis(consecutive(seeds.workload, 4));
    families.push_back({"gapped_trace", std::move(grid)});
  }
  {  // Fig 7 DC charge-ramp bursts: 0.5 s of DC every 10 s.
    spec::SystemSpec s = fig7_base(seeds.workload, "fft-large");
    s.source = spec::SquareSource{3.3, 0.1, 0.05, 0.0, 50.0};
    s.sim.t_end = 20.0;
    s.sim.macro_stepping = true;
    sweep::Grid grid(s);
    grid.capacitance_axis({33e-6, 47e-6, 68e-6, 100e-6})
        .workload_seed_axis(consecutive(seeds.workload, 8));
    families.push_back({"charge_ramp", std::move(grid)});
  }
  {  // 1%-duty brown-out tail: one 80 ms burst every 8 s, over six bursts.
    spec::SystemSpec s;
    s.source = spec::SquareSource{3.3, 0.125, 0.01, 0.0, 50.0};
    s.storage.capacitance = 47e-6;
    s.storage.bleed = 10000.0;
    s.workload.kind = "fft-small";
    s.sim.t_end = 48.0;
    s.sim.stop_on_completion = false;
    s.sim.macro_stepping = true;
    sweep::Grid grid(s);
    grid.capacitance_axis({22e-6, 33e-6, 47e-6, 68e-6, 100e-6, 150e-6, 220e-6, 330e-6})
        .workload_seed_axis(consecutive(seeds.workload, 12));
    families.push_back({"brownout_tail", std::move(grid)});
  }
  {  // WISPCam-style RF reader field: 0.2 s interrogations every 6 s with
     // 10% jitter, so every seed sees exactly two bursts in the 10 s window.
    edc::trace::RfFieldSource::Params rf;
    rf.field_power = 2e-3;
    rf.burst_length = 0.2;
    rf.burst_period = 6.0;
    rf.jitter = 0.1;
    spec::SystemSpec s;
    s.source = spec::RfFieldPower{rf, seeds.rf, 10.0};
    s.storage.capacitance = 22e-6;
    s.storage.bleed = 5000.0;
    s.workload.kind = "crc";
    s.workload.seed = 3;
    s.sim.t_end = 10.0;
    s.sim.stop_on_completion = false;
    s.sim.macro_stepping = true;
    sweep::Grid grid(s);
    grid.capacitance_axis({22e-6, 47e-6, 100e-6, 220e-6})
        .axis("rf seed", source_seed_axis<spec::RfFieldPower>(seeds.rf, 6));
    families.push_back({"rf_idle", std::move(grid)});
  }
  return families;
}

// ---- fine_batch_sweep ------------------------------------------------------

const std::vector<double> kSurveyCapacitances = {
    4.7e-6, 6.8e-6, 10e-6, 15e-6, 22e-6, 33e-6, 47e-6, 68e-6,
    100e-6, 150e-6, 220e-6, 330e-6, 470e-6, 680e-6, 1000e-6, 1500e-6};

std::vector<Family> fine_families(const Seeds& seeds, const InputFiles& files,
                                  Tracer* tracer) {
  std::vector<Family> families;
  {  // Fig 7 6 Hz sine survey x Hibernus / QuickRecall / NVP, 8 substeps.
    spec::SystemSpec s = fig7_base(seeds.workload, "fft-small");
    s.source = spec::SineSource{3.3, 6.0};
    s.sim.t_end = 1.0;
    s.sim.node_substeps = 8;
    const auto config = fig7_policy_config();
    sweep::Grid grid(s);
    grid.capacitance_axis(kSurveyCapacitances)
        .axis("policy",
              {{"hibernus",
                [config](spec::SystemSpec& p) { p.policy = spec::Hibernus{config}; }},
               {"quickrecall",
                [config](spec::SystemSpec& p) { p.policy = spec::QuickRecall{config}; }},
               {"nvp", [config](spec::SystemSpec& p) { p.policy = spec::Nvp{config}; }}});
    families.push_back({"fig7_sine", std::move(grid)});
  }
  {  // Fig 8 seeded gust, 3 s from its onset.
    sweep::Grid grid(fig8_base(spec::WindSource{turbine(), seeds.wind, 3.0}, 3.0));
    grid.capacitance_axis(kSurveyCapacitances);
    families.push_back({"fig8_gust", std::move(grid)});
  }
  {  // The generated recorded gust trace (220 Ohm: the turbine's coil).
    sweep::Grid grid(fig8_base(load_trace(files.gust_csv, 220.0, tracer), 1.0));
    grid.capacitance_axis(kSurveyCapacitances);
    families.push_back({"gust_trace", std::move(grid)});
  }
  {  // Eq 5 square grid: 7 frequencies x 2 policies, so 2-lane groups,
     // each riding 0.5 s of interruptions.
    spec::SystemSpec s = eq5_base(seeds.workload, false);
    s.sim.t_end = 0.5;
    s.sim.stop_on_completion = false;
    sweep::Grid grid(s);
    grid.numeric_axis("f_interrupt (Hz)", eq5_dense_frequencies(), eq5_set_frequency)
        .axis("policy", eq5_policies());
    families.push_back({"eq5_square", std::move(grid)});
  }
  return families;
}

// ---- cached_queries --------------------------------------------------------

std::vector<Query> queries(const Seeds& seeds, const InputFiles& files, Tracer* tracer) {
  std::vector<Query> out;
  {  // Minimum capacitance that rides the recorded gust trace without a
     // brown-out.
    Query q;
    q.name = "min_c_trace";
    q.base = fig8_base(load_trace(files.gust_csv, 220.0, tracer), kTraceSeconds);
    q.base.sim.macro_stepping = true;
    q.axis = capacitance_search_axis();
    q.objective = survives;
    q.lo = 1e-6;
    q.hi = 1e-2;
    q.tol = 1e-5;
    out.push_back(std::move(q));
  }
  {  // design_query --demo: the wind turbine into a leaky node, CRC
     // looping over 10 s, seeded gusts.
    Query q;
    q.name = "wind_demo";
    q.base.source = spec::WindSource{turbine(), seeds.wind + 200, 10.0};
    q.base.storage.capacitance = 10e-6;
    q.base.storage.bleed = 10000.0;
    q.base.workload.kind = "crc";
    q.base.workload.seed = 9;
    q.base.sim.t_end = 10.0;
    q.base.sim.stop_on_completion = false;
    q.base.sim.macro_stepping = true;
    q.axis = capacitance_search_axis();
    q.objective = survives;
    q.lo = 1e-6;
    q.hi = 1e-2;
    q.tol = 1e-5;
    out.push_back(std::move(q));
  }
  {  // Eq 5 crossover on the refined 49-point lattice (8 per octave).
    Query q;
    q.name = "eq5_solve";
    q.base = eq5_base(seeds.workload, true);
    q.axis = {"f_interrupt (Hz)", eq5_set_frequency, {}};
    q.variant_axis = "policy";
    q.variants = eq5_policies();
    q.objective = [](double, const std::vector<edc::sim::SimResult>& rows) {
      return eq5_gap(rows);
    };
    q.direction = -1;
    for (int i = 0; i <= 48; ++i) {
      q.lattice.push_back(std::ldexp(5.0, i / 8) * std::pow(2.0, (i % 8) / 8.0));
    }
    out.push_back(std::move(q));
  }
  {  // design_query --fleet-demo: 3 shared-RF AdaptiveBuffer nodes; the
     // seed perturbs each node's path gain (+-5%) and slot phase (+-0.1 s).
    spec::FleetSpec fleet = spec::example_rf_fleet(3);
    auto& rf = std::get<spec::SharedRfCoupling>(fleet.coupling);
    edc::trace::Rng rng(seeds.fleet);
    for (double& gain : rf.gains) gain *= rng.uniform(0.95, 1.05);
    for (double& phase : rf.phases) phase = std::max(0.0, phase + rng.uniform(-0.1, 0.1));
    Query q;
    q.name = "fleet_demo";
    q.base = fleet.nodes[0];
    q.base.sim.macro_stepping = true;
    q.axis = capacitance_search_axis();
    q.variant_axis = "node";
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      q.variants.push_back({"node" + std::to_string(i),
                            [source = spec::fleet_node_spec(fleet, i).source](
                                spec::SystemSpec& s) { s.source = source; }});
    }
    q.objective = [](double, const std::vector<edc::sim::SimResult>& rows) {
      for (const edc::sim::SimResult& row : rows) {
        if (!row.mcu.completed) return -1.0;
      }
      return 1.0;
    };
    q.lattice = geometric(1e-6, fleet.nodes[0].storage.capacitance, 17);
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

std::vector<double> eq5_dense_frequencies() { return {5, 10, 20, 40, 80, 160, 320}; }

std::vector<sweep::AxisValue> eq5_policies() {
  edc::checkpoint::InterruptPolicy::Config config;
  config.margin = 3.0;
  config.restore_headroom = 0.15;
  return {{"hibernus", [config](spec::SystemSpec& s) { s.policy = spec::Hibernus{config}; }},
          {"quickrecall",
           [config](spec::SystemSpec& s) { s.policy = spec::QuickRecall{config}; }}};
}

void eq5_set_frequency(spec::SystemSpec& s, double frequency) {
  s.source = spec::SquareSource{3.3, frequency, 0.5, 0.0, 50.0};
}

double eq5_gap(const std::vector<edc::sim::SimResult>& rows) {
  const auto per_mcycle = [](const edc::sim::SimResult& r) {
    if (r.mcu.forward_cycles <= 1000.0) return std::numeric_limits<double>::infinity();
    return r.mcu.energy_total() / (r.mcu.forward_cycles / 1e6);
  };
  return (per_mcycle(rows[1]) - per_mcycle(rows[0])) * 1e6;
}

Setup build_setup(Workload workload, const Seeds& seeds, const InputFiles& files,
                  Tracer* tracer) {
  Setup setup;
  switch (workload) {
    case Workload::macro_scenarios:
      setup.families = macro_families(seeds, files, tracer);
      break;
    case Workload::fine_batch_sweep:
      setup.families = fine_families(seeds, files, tracer);
      break;
    case Workload::cached_queries:
      setup.queries = queries(seeds, files, tracer);
      break;
  }
  return setup;
}

sweep::RunnerOptions runner_options(Workload workload, sweep::Cache* cache) {
  sweep::RunnerOptions options;
  options.threads = 1;
  options.cache = cache;
  options.batch = workload == Workload::fine_batch_sweep;
  options.batch_lanes = 16;
  return options;
}

JobResult run_job(Workload workload, const Setup& setup, sweep::Cache* cache) {
  JobResult job;
  const sweep::Runner runner(runner_options(workload, cache));
  for (const Family& family : setup.families) {
    UnitResult unit;
    unit.name = family.name;
    sweep::RunReport report;
    const auto start = Clock::now();
    try {
      unit.rows = runner.run(family.grid, &report);
    } catch (const std::exception& error) {
      unit.error = error.what();
    }
    unit.call_s = seconds_since(start);
    for (std::size_t i = 0; i < report.origin.size() && unit.error.empty(); ++i) {
      if (report.origin[i] != sweep::kOriginFresh) continue;
      ++unit.fresh;
      unit.fresh_s += report.micros[i] * 1e-6;
    }
    job.push_back(std::move(unit));
  }
  for (const Query& query : setup.queries) {
    UnitResult unit;
    unit.name = query.name;
    sweep::SearchOptions options;
    options.runner = runner_options(workload, cache);
    options.direction = query.direction;
    const auto start = Clock::now();
    try {
      std::optional<sweep::Search> search;
      if (query.variants.empty()) {
        search.emplace(query.base, query.axis, query.objective, options);
      } else {
        search.emplace(query.base, query.axis, query.variant_axis, query.variants,
                       query.objective, options);
      }
      unit.outcome = query.lattice.empty() ? search->contract(query.lo, query.hi, query.tol)
                                           : search->bracket_on(query.lattice);
    } catch (const std::exception& error) {
      unit.error = error.what();
    }
    unit.call_s = seconds_since(start);
    if (unit.outcome.has_value()) {
      for (const sweep::SearchProbe& probe : unit.outcome->probes) {
        unit.rows.insert(unit.rows.end(), probe.rows.begin(), probe.rows.end());
        if (probe.warm == 0) unit.fresh_s += probe.micros * 1e-6;
      }
      unit.fresh = unit.outcome->simulated_points();
    }
    job.push_back(std::move(unit));
  }
  return job;
}

void fill_cache(const Setup& setup, const JobResult& job, sweep::Cache& cache) {
  for (std::size_t f = 0; f < setup.families.size(); ++f) {
    const sweep::Grid& grid = setup.families[f].grid;
    for (std::size_t i = 0; i < job[f].rows.size(); ++i) {
      cache.store(spec::serialize(grid.point(i).spec), job[f].rows[i]);
    }
  }
}

}  // namespace edcbench
