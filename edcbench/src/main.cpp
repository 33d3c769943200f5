// edcbench — the repository benchmark program (see README.md).
//
//   edcbench run --workload NAME --seed N --seconds S --trace 0|1
//                --work DIR [--spans FILE] [--corrupt-row]
//   edcbench selftest --work DIR
//
// `run` generates the workload's inputs from the seed into DIR, times
// set-up and the job with tracing off (--trace 0), or runs the traced job
// (--trace 1), checks the outputs, and prints one JSON object as its last
// line. run.py builds this program and calls it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "edc/sim/result_io.h"
#include "edc/spec/trace_loaders.h"
#include "edc/sweep/cache.h"
#include "edc/trace/csv.h"
#include "inputs.h"
#include "traced_run.h"
#include "tracing.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace edcbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The per-layer names and units BENCHMARK.json lists (selftest.py holds
// both equal); "sim.run_s.<family>" follows "sim.spans" for every family.
constexpr const char* kFamilies[] = {
    "wind_survey", "governed_fig8", "gapped_trace", "charge_ramp", "brownout_tail",
    "rf_idle",     "fig7_sine",     "fig8_gust",    "gust_trace",  "eq5_square",
    "min_c_trace", "wind_demo",     "eq5_solve",    "fleet_demo"};

constexpr MetricDef kPerLayer[] = {
    {"trace.csv_load_s", "s"},
    {"trace.build_s", "s"},
    {"trace.sample_calls", "count"},
    {"trace.sample_s", "s"},
    {"trace.hint_calls", "count"},
    {"trace.hint_s", "s"},
    {"trace.hint_useful_ratio", "1"},
    {"circuit.driver_calls", "count"},
    {"circuit.driver_s", "s"},
    {"circuit.step_ns", "ns"},
    {"circuit.step_lanes_ns", "ns"},
    {"sim.fine_steps", "count"},
    {"sim.span_steps", "count"},
    {"sim.spans", "count"},
    {"sim.span_coverage", "1"},
    {"sim.batch_run_s", "s"},
    {"sim.ns_per_fine_step", "ns"},
    {"sim.result_encode_s", "s"},
    {"sim.result_decode_s", "s"},
    {"sim.result_bytes", "bytes"},
    {"sim.macro_energy_err", "1"},
    {"workloads.ticks", "count"},
    {"workloads.tick_s", "s"},
    {"workloads.snapshot_s", "s"},
    {"mcu.brownouts", "count"},
    {"checkpoint.saves", "count"},
    {"checkpoint.restores", "count"},
    {"mcu.nvm_commits", "count"},
    {"mcu.nvm_torn_writes", "count"},
    {"neutral.governor_calls", "count"},
    {"spec.serialize_s", "s"},
    {"spec.key_bytes", "bytes"},
    {"spec.hash_s", "s"},
    {"spec.instantiate_s", "s"},
    {"sweep.grid_point_s", "s"},
    {"sweep.group_key_s", "s"},
    {"sweep.lanes_per_chunk", "lanes"},
    {"sweep.cache_load_s", "s"},
    {"sweep.cache_store_s", "s"},
    {"sweep.cache_hits", "count"},
    {"sweep.cache_misses", "count"},
    {"sweep.cache_stores", "count"},
    {"sweep.cache_quarantined", "count"},
    {"sweep.search_probes", "count"},
    {"sweep.search_simulated", "count"},
    {"sweep.search_warm", "count"},
    {"sweep.runner_overhead_s", "s"},
    {"bench.traced_wall_s", "s"},
    {"bench.trace_overhead_s", "s"},
    {"bench.unattributed_s", "s"},
};

/// Set-up is timed this many times per run; set-up_s is the median.
constexpr int kSetupRepeats = 5;
/// After one untimed warm-up, the job runs at least this many times, then
/// until --seconds is spent.
constexpr int kMinRepeats = 3;

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  fs::path work;
  std::string spans;
  bool corrupt_row = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "edcbench: %s\nusage: edcbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --work DIR [--spans FILE] [--corrupt-row]\n"
               "       edcbench selftest --work DIR\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  if (argc < 2) usage("missing mode");
  options.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-row") {
      options.corrupt_row = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("--seed needs a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1" ? 1 : 0;
    } else if (flag == "--work") {
      options.work = value;
    } else if (flag == "--spans") {
      options.spans = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.work.empty()) usage("--work is required");
  return options;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

InputFiles generate_inputs(Workload workload, const Seeds& seeds, const fs::path& work) {
  InputFiles files;
  if (workload == Workload::macro_scenarios) {
    files.gapped_csv = (work / "gapped_sine.csv").string();
    write_trace_csv(files.gapped_csv, gapped_sine_wave(seeds.trace));
  } else {
    files.gust_csv = (work / "gust.csv").string();
    write_trace_csv(files.gust_csv, gust_wave(seeds.wind));
  }
  return files;
}

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    line += (i == 0 ? "" : ", ") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void report_checks(const CheckReport& report, std::uint64_t digest) {
  std::printf("result digest: %016llx\n", static_cast<unsigned long long>(digest));
  for (const std::string& failure : report.failures) {
    std::printf("check failed: %s\n", failure.c_str());
  }
  std::printf("checks: %zu of %zu rows failed\n", report.failed(), report.attempted());
}

/// Flips one row's harvested energy (selftest only): the ledger and
/// replay checks must then count it as failed.
void corrupt_first_row(JobResult& job) {
  for (UnitResult& unit : job) {
    if (unit.rows.empty()) continue;
    unit.rows[0].harvested += 1.0;
    return;
  }
}

/// Marks every row failed (a run-wide check).
void fail_all(CheckReport& report, const std::string& why) {
  for (auto& unit : report.row_failed) std::fill(unit.begin(), unit.end(), 1);
  report.failures.push_back(why);
}

// ---- --trace 0: the timed run -------------------------------------------

int run_timed(Workload workload, const Options& options) {
  const Seeds seeds = derive_seeds(options.seed);
  const InputFiles files = generate_inputs(workload, seeds, options.work);

  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup.reset();
    const auto start = Clock::now();
    setup.emplace(build_setup(workload, seeds, files));
    setup_s.push_back(seconds_since(start));
  }

  const bool queries = workload == Workload::cached_queries;
  const fs::path cache_dir = options.work / "cache";
  std::vector<double> run_s;
  std::vector<double> warm_s;
  JobResult cold0;
  JobResult warm0;
  std::uint64_t digest = 0;
  bool digest_stable = true;
  // Repetition 0 warms caches and the allocator and is not timed; its
  // rows are the ones checked. Timed repetitions follow until --seconds
  // is spent, at least kMinRepeats of them.
  auto loop_start = Clock::now();
  for (int rep = 0;; ++rep) {
    if (queries) fs::remove_all(cache_dir);
    std::optional<edc::sweep::Cache> cache;
    if (queries) cache.emplace(cache_dir);
    auto start = Clock::now();
    JobResult cold = run_job(workload, *setup, queries ? &*cache : nullptr);
    const double cold_s = seconds_since(start);
    if (!queries) {
      cache.emplace(cache_dir);
      if (rep == 0) fill_cache(*setup, cold, *cache);
    }
    start = Clock::now();
    JobResult warm = run_job(workload, *setup, &*cache);
    const double replay_s = seconds_since(start);
    const std::uint64_t d = result_digest(cold);
    if (rep == 0) {
      digest = d;
      cold0 = std::move(cold);
      warm0 = std::move(warm);
      loop_start = Clock::now();
      continue;
    }
    digest_stable = digest_stable && d == digest;
    run_s.push_back(cold_s);
    warm_s.push_back(replay_s);
    if (rep >= kMinRepeats && seconds_since(loop_start) >= options.seconds) break;
  }
  fs::remove_all(cache_dir);

  if (options.corrupt_row) corrupt_first_row(cold0);
  CheckReport report = check_job(workload, *setup, cold0, warm0);
  if (!digest_stable) fail_all(report, "result digest changed between repetitions");
  report_checks(report, digest);

  double simulated_s = 0.0;
  for (const UnitResult& unit : cold0) {
    for (const auto& row : unit.rows) simulated_s += row.end_time;
    std::printf("  %-14s %4zu rows  first cold call %.4f s\n", unit.name.c_str(),
                unit.rows.size(), unit.call_s);
  }
  const double run = median(run_s);
  std::printf("%s seed %llu: %zu repetitions\n", workload_name(workload),
              static_cast<unsigned long long>(options.seed), run_s.size());
  for (const auto& [name, samples] : {std::pair{"setup_s", &setup_s},
                                      std::pair{"run_s", &run_s},
                                      std::pair{"warm_s", &warm_s}}) {
    std::printf("  %-8s", name);
    for (const double sample : *samples) std::printf(" %.4f", sample);
    std::printf("\n");
  }
  const double attempted = static_cast<double>(report.attempted());
  print_result(report.failed() == 0, report.attempted(), report.failed(),
               {{"setup_s", "s", median(setup_s)},
                {"run_s", "s", run},
                {"sim_s_per_s", "s/s", simulated_s / run},
                {"warm_s", "s", median(warm_s)},
                {"peak_rss_mb", "MB", peak_rss_mb()},
                {"pass_ratio", "1",
                 attempted > 0.0 ? 1.0 - static_cast<double>(report.failed()) / attempted
                                 : 0.0}});
  return 0;
}

// ---- --trace 1: the traced run ------------------------------------------

struct SpanTotals {
  std::int64_t self_ns = 0;
  std::size_t count = 0;
};

int run_traced(Workload workload, const Options& options) {
  const Seeds seeds = derive_seeds(options.seed);
  const InputFiles files = generate_inputs(workload, seeds, options.work);
  Tracer tracer;
  std::optional<Setup> setup;
  {
    const Tracer::Scope scope(tracer, "bench.setup");
    setup.emplace(build_setup(workload, seeds, files, &tracer));
  }

  // The untraced pass: the timed job once, for the counts, the checks and
  // the overhead baseline.
  const bool queries = workload == Workload::cached_queries;
  const fs::path cache_dir = options.work / "cache";
  fs::remove_all(cache_dir);
  edc::sweep::Cache cache(cache_dir);
  auto start = Clock::now();
  JobResult cold = run_job(workload, *setup, queries ? &cache : nullptr);
  const double untraced_cold_s = seconds_since(start);
  start = Clock::now();
  if (!queries) fill_cache(*setup, cold, cache);
  const double untraced_fill_s = seconds_since(start);
  start = Clock::now();
  const JobResult warm = run_job(workload, *setup, &cache);
  const double untraced_warm_s = seconds_since(start);
  const edc::sweep::CacheStats cache_stats = cache.stats();
  if (options.corrupt_row) corrupt_first_row(cold);
  CheckReport report = check_job(workload, *setup, cold, warm);

  // The traced job.
  const fs::path traced_cache_dir = options.work / "traced-cache";
  fs::remove_all(traced_cache_dir);
  std::optional<TracedJob> traced;
  std::size_t root = 0;
  const auto traced_start = Clock::now();
  {
    const Tracer::Scope scope(tracer, "bench.job");
    root = tracer.spans().size() - 1;
    traced.emplace(run_traced_job(workload, *setup, cold, traced_cache_dir.string(), tracer));
  }
  const double traced_wall_s = seconds_since(traced_start);
  fs::remove_all(traced_cache_dir);
  fs::remove_all(cache_dir);

  // Decorated rows must be byte-identical to the untraced ones.
  for (std::size_t u = 0; u < cold.size(); ++u) {
    const auto& traced_rows = traced->cold[u].rows;
    const auto& warm_rows = traced->warm[u].rows;
    for (std::size_t i = 0; i < cold[u].rows.size(); ++i) {
      const std::string bytes = edc::sim::serialize_result(cold[u].rows[i]);
      if (i >= traced_rows.size() || i >= warm_rows.size() ||
          edc::sim::serialize_result(traced_rows[i]) != bytes ||
          edc::sim::serialize_result(warm_rows[i]) != bytes) {
        report.row_failed[u][i] = 1;
        report.failures.push_back(cold[u].name + ": row " + std::to_string(i) +
                                  ": decorated run's bytes differ from the untraced run's");
      }
    }
  }

  // Attribution: self times of the job's spans and calls cover its wall.
  std::map<std::string, SpanTotals> by_name;
  std::map<std::string, double> family_run_s;
  std::array<CallStats, kLayerCount> calls{};
  std::int64_t job_self_ns = 0;
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    SpanTotals& totals = by_name[span.name];
    totals.self_ns += span.self_ns();
    ++totals.count;
    if (span.name == "sim.run" || span.name == "sim.batch_run") {
      family_run_s[span.family] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      calls[l].calls += span.calls[l].calls;
      calls[l].useful += span.calls[l].useful;
      calls[l].self_ns += span.calls[l].self_ns;
      if (i >= root) job_self_ns += span.calls[l].self_ns;
    }
    if (i >= root) job_self_ns += span.self_ns();
  }
  const double attributed_s = static_cast<double>(job_self_ns) * 1e-9;
  const double tolerance_s = 0.01 * traced_wall_s + 1e-3;
  const double unattributed_s =
      static_cast<double>(by_name["bench.job"].self_ns + by_name["bench.cold_leg"].self_ns +
                          by_name["bench.cache_fill"].self_ns +
                          by_name["bench.warm_leg"].self_ns) *
      1e-9;
  std::printf("traced spans (self time, s):\n");
  for (const auto& [name, totals] : by_name) {
    std::printf("  %-22s %8zu spans %12.6f\n", name.c_str(), totals.count,
                static_cast<double>(totals.self_ns) * 1e-9);
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::printf("  %-22s %8llu calls %12.6f\n", layer_name(static_cast<Layer>(l)),
                static_cast<unsigned long long>(calls[l].calls),
                static_cast<double>(calls[l].self_ns) * 1e-9);
  }
  std::printf("unattributed: %.6f s of %.6f s traced wall (benchmark loop glue inside "
              "bench.* spans, outside every layer span)\n",
              unattributed_s, traced_wall_s);
  std::printf("self times sum to %.6f s, traced wall %.6f s (tolerance %.6f s)\n",
              attributed_s, traced_wall_s, tolerance_s);
  if (std::abs(attributed_s - traced_wall_s) > tolerance_s) {
    fail_all(report, "span self times do not sum to the traced wall time");
  }
  const double untraced_s = untraced_cold_s + untraced_fill_s + untraced_warm_s;
  std::printf("tracing overhead: %.6f s (traced %.6f s vs untraced %.6f s)\n",
              traced_wall_s - untraced_s, traced_wall_s, untraced_s);
  report_checks(report, result_digest(cold));
  if (!options.spans.empty()) tracer.write_jsonl(options.spans);

  // Counts from the untraced rows, searches and caches.
  double fine = 0, span_steps = 0, span_count = 0, brownouts = 0, saves = 0, restores = 0,
         commits = 0, torn = 0;
  for (const UnitResult& unit : cold) {
    for (const auto& row : unit.rows) {
      fine += static_cast<double>(row.fine_steps);
      span_steps += static_cast<double>(row.span_steps);
      span_count += static_cast<double>(row.spans);
      brownouts += static_cast<double>(row.mcu.brownouts);
      saves += static_cast<double>(row.mcu.saves_completed);
      restores += static_cast<double>(row.mcu.restores);
      commits += static_cast<double>(row.nvm_commits);
      torn += static_cast<double>(row.nvm_torn_writes);
    }
  }
  double probes = 0, simulated = 0, warm_probes = 0, runner_overhead_s = 0;
  for (const JobResult* job : std::array<const JobResult*, 2>{&cold, &warm}) {
    for (const UnitResult& unit : *job) {
      runner_overhead_s += unit.call_s - unit.fresh_s;
      if (!unit.outcome.has_value()) continue;
      probes += static_cast<double>(unit.outcome->probe_count());
      simulated += static_cast<double>(unit.outcome->simulated_points());
      warm_probes += static_cast<double>(unit.outcome->warm_points());
    }
  }
  double lanes = 0.0;
  for (const std::size_t n : traced->counts.chunk_lanes) lanes += static_cast<double>(n);
  if (!traced->counts.chunk_lanes.empty()) {
    lanes /= static_cast<double>(traced->counts.chunk_lanes.size());
  }
  const StepCost step = replay_node_steps(
      queries ? setup->queries.front().probe_spec(setup->queries.front().lo, 0)
              : setup->families.front().grid.point(0).spec);

  const auto self_s = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.self_ns) * 1e-9;
  };
  const auto call_s = [&](Layer layer) {
    return static_cast<double>(calls[static_cast<std::size_t>(layer)].self_ns) * 1e-9;
  };
  const auto call_n = [&](Layer layer) {
    return static_cast<double>(calls[static_cast<std::size_t>(layer)].calls);
  };
  const CallStats& hints = calls[static_cast<std::size_t>(Layer::trace_hint)];
  std::map<std::string, double> values = {
      {"trace.csv_load_s", self_s("trace.csv_load")},
      {"trace.build_s", self_s("trace.build")},
      {"trace.sample_calls", call_n(Layer::trace_sample)},
      {"trace.sample_s", call_s(Layer::trace_sample)},
      {"trace.hint_calls", call_n(Layer::trace_hint)},
      {"trace.hint_s", call_s(Layer::trace_hint)},
      {"trace.hint_useful_ratio",
       hints.calls == 0
           ? 0.0
           : static_cast<double>(hints.useful) / static_cast<double>(hints.calls)},
      {"circuit.driver_calls", call_n(Layer::circuit_driver)},
      {"circuit.driver_s", call_s(Layer::circuit_driver)},
      {"circuit.step_ns", step.step_ns},
      {"circuit.step_lanes_ns", step.step_lanes_ns},
      {"sim.fine_steps", fine},
      {"sim.span_steps", span_steps},
      {"sim.spans", span_count},
      {"sim.span_coverage", fine + span_steps > 0 ? span_steps / (fine + span_steps) : 0.0},
      {"sim.batch_run_s", self_s("sim.batch_run")},
      {"sim.ns_per_fine_step", fine > 0 ? untraced_cold_s * 1e9 / fine : 0.0},
      {"sim.result_encode_s", self_s("sim.result_encode")},
      {"sim.result_decode_s", self_s("sim.result_decode")},
      {"sim.result_bytes", static_cast<double>(traced->counts.result_bytes)},
      {"sim.macro_energy_err", report.macro_energy_err},
      {"workloads.ticks", call_n(Layer::workload_tick)},
      {"workloads.tick_s", call_s(Layer::workload_tick)},
      {"workloads.snapshot_s", call_s(Layer::workload_snapshot)},
      {"mcu.brownouts", brownouts},
      {"checkpoint.saves", saves},
      {"checkpoint.restores", restores},
      {"mcu.nvm_commits", commits},
      {"mcu.nvm_torn_writes", torn},
      {"neutral.governor_calls", call_n(Layer::governor)},
      {"spec.serialize_s", self_s("spec.serialize")},
      {"spec.key_bytes", static_cast<double>(traced->counts.key_bytes)},
      {"spec.hash_s", self_s("spec.hash")},
      {"spec.instantiate_s", self_s("spec.instantiate")},
      {"sweep.grid_point_s", self_s("sweep.grid_point")},
      {"sweep.group_key_s", self_s("sweep.group_key")},
      {"sweep.lanes_per_chunk", lanes},
      {"sweep.cache_load_s", self_s("sweep.cache_load")},
      {"sweep.cache_store_s", self_s("sweep.cache_store")},
      {"sweep.cache_hits", static_cast<double>(cache_stats.hits)},
      {"sweep.cache_misses", static_cast<double>(cache_stats.misses)},
      {"sweep.cache_stores", static_cast<double>(cache_stats.stores)},
      {"sweep.cache_quarantined", static_cast<double>(cache_stats.quarantined)},
      {"sweep.search_probes", probes},
      {"sweep.search_simulated", simulated},
      {"sweep.search_warm", warm_probes},
      {"sweep.runner_overhead_s", runner_overhead_s},
      {"bench.traced_wall_s", traced_wall_s},
      {"bench.trace_overhead_s", traced_wall_s - untraced_s},
      {"bench.unattributed_s", unattributed_s},
  };
  std::vector<Metric> metrics;
  for (const MetricDef& def : kPerLayer) {
    metrics.push_back({def.name, def.unit, values.at(def.name)});
    if (std::strcmp(def.name, "sim.spans") != 0) continue;
    for (const char* family : kFamilies) {
      metrics.push_back({std::string("sim.run_s.") + family, "s", family_run_s[family]});
    }
  }
  print_result(report.failed() == 0, report.attempted(), report.failed(), metrics);
  return 0;
}

// ---- selftest -------------------------------------------------------------

int selftest(const fs::path& work) {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const auto write = [&](const std::string& name, const edc::trace::Waveform& wave) {
    const std::string path = (work / name).string();
    write_trace_csv(path, wave);
    return path;
  };

  const Seeds one = derive_seeds(1);
  const Seeds again = derive_seeds(1);
  const Seeds two = derive_seeds(2);
  const std::string gust_a = write("gust_a.csv", gust_wave(one.wind));
  const std::string gust_b = write("gust_b.csv", gust_wave(again.wind));
  const std::string gust_c = write("gust_c.csv", gust_wave(two.wind));
  const std::string gap_a = write("gap_a.csv", gapped_sine_wave(one.trace));
  const std::string gap_b = write("gap_b.csv", gapped_sine_wave(again.trace));
  const std::string gap_c = write("gap_c.csv", gapped_sine_wave(two.trace));
  check(slurp(gust_a) == slurp(gust_b) && slurp(gap_a) == slurp(gap_b),
        "the same seed generates byte-identical inputs");
  check(slurp(gust_a) != slurp(gust_c) && slurp(gap_a) != slurp(gap_c),
        "another seed generates other inputs");
  check(one.wind != one.rf && one.rf != one.fleet && one.fleet != one.workload,
        "the seed streams of one seed differ");

  for (const auto& [path, wave] :
       {std::pair{gust_a, gust_wave(one.wind)},
        std::pair{gap_a, gapped_sine_wave(one.trace)}}) {
    std::ifstream in(path, std::ios::binary);
    const edc::trace::Waveform back = edc::trace::read_csv(in);
    const auto loaded = edc::spec::load_voltage_trace_csv(path);
    check(back.samples() == wave.samples() && back.t0() == wave.t0() &&
              back.dt() == wave.dt() && loaded.wave.samples() == wave.samples(),
          "the CSV writer round-trips bit-exactly through trace::read_csv");
  }

  // The known defect the generator works around: trace::write_csv prints
  // six significant digits, so a 400,001-sample 20 s trace repeats
  // timestamps and read_csv rejects it. Reported, not failed.
  std::stringstream lossy;
  edc::trace::write_csv(lossy, "volts", gust_wave(one.wind));
  try {
    (void)edc::trace::read_csv(lossy);
    std::printf("  [NOTE] trace::write_csv now round-trips a 400,001-sample trace\n");
  } catch (const std::exception& error) {
    std::printf("  [NOTE] known defect still present: trace::write_csv output is "
                "rejected by read_csv (%s)\n",
                error.what());
  }
  std::printf("selftest: %s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold to the size of each mmapped block the
  // program frees, so whether a multi-megabyte spec key is mmapped (and
  // page-faulted afresh) depends on the sizes freed before it, which the
  // seed's key lengths change: one seed ran 10-20% slower than another
  // doing the same work. Pinning the threshold at glibc's initial 128 KiB
  // turns the adaptation off, so every large buffer costs the same on
  // every seed and the timings measure the work.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options options = parse(argc, argv);
  try {
    fs::create_directories(options.work);
    if (options.mode == "selftest") return selftest(options.work);
    if (options.mode != "run") usage("unknown mode");
    const std::optional<Workload> workload = parse_workload(options.workload);
    if (!workload.has_value()) usage("unknown --workload");
    if (options.seconds <= 0.0 || options.trace < 0) {
      usage("--seconds and --trace are required");
    }
    return options.trace == 1 ? run_traced(*workload, options)
                              : run_timed(*workload, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "edcbench: %s\n", error.what());
    return 1;
  }
}
