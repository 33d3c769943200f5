// design_query — answer inverse design questions with sweep::Search.
//
// The paper's sizing questions ("what is the minimum storage that survives
// this harvester trace?", "how slow can the reader field pulse before the
// workload stops completing?") are inverse problems over one spec axis.
// This tool asks them directly: pick a base spec, a continuous axis, and a
// pass/fail objective, and the solver brackets the threshold in O(log)
// simulations instead of a dense sweep's O(grid).
//
//   design_query --demo
//       The minimum-capacitance question on the micro wind turbine
//       (5 V / 6 Hz, seeded gusts): smallest C in [1 uF, 1 mF] that rides
//       through the full 10 s trace with zero brownouts, to 1 uF.
//
//   design_query --spec system.spec --axis capacitance --lo 1e-6 --hi 1e-3
//                --objective brownouts --target 0 --tol 1e-6
//       The same question on any spec document (see spec/serialize.h;
//       "-" reads the spec from stdin, --print-spec emits the demo's, so
//       `design_query --demo --print-spec | design_query --spec - ...`
//       round-trips).
//
// Axes: capacitance, bleed, t-end (horizon), frequency, duty, amplitude
// (the last three mutate the source in place and require a compatible
// source family). Objectives (positive = pass, negative = fail):
//
//   completed          +1 when every row's workload completed, -1 otherwise
//   brownouts          (target + 0.5) - brownouts     (pass: <= target)
//   forward-cycles     forward_cycles - target + 0.5  (pass: >= target)
//   final-energy       stored_final - target          (pass: >= target J)
//
// Integer objectives are biased half a count off zero so the crossing is a
// strict sign change (sweep::Search rejects sign-degenerate probes loudly).
//
// The default strategy is continuous interval contraction to --tol;
// --lattice N / --log-lattice N switch to discrete bisection over an
// N-point linear/geometric lattice (with neighbour verification, see
// sweep/search.h). --cache memoises probes on disk: a warm rerun of the
// same query simulates zero points, which the closing "simulated N of M
// dense-equivalent points, K replayed warm" line reports. Numbers must be
// finite and counts whole decimal integers; anything else exits 2 before
// a probe runs.
//
//   design_query --fleet-demo
//       The smallest node capacitance at which every node of the 3-node
//       shared-RF example fleet (spec::example_rf_fleet) completes. It is
//       one fixed query (capacitance axis, "completed" objective, a
//       17-point geometric lattice), so it takes --lo, --hi, --log-lattice,
//       --max-probes and --cache, and exits 2 on --axis, --objective,
//       --target, --tol, --lattice and --print-spec.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "edc/sim/table.h"
#include "edc/spec/fleet_spec.h"
#include "edc/spec/serialize.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/search.h"
#include "edc/trace/voltage_sources.h"

using namespace edc;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--demo | --fleet-demo | --spec FILE|-)\n"
      "          [--axis capacitance|bleed|t-end|frequency|duty|amplitude]\n"
      "          [--lo X --hi X] [--tol X | --lattice N | --log-lattice N]\n"
      "          [--objective completed|brownouts|forward-cycles|final-energy]\n"
      "          [--target X] [--max-probes N] [--cache DIR] [--print-spec]\n",
      argv0);
  return 2;
}

/// The --demo base spec: the Fig 1a micro wind turbine (5 V / 6 Hz peak,
/// seeded gusts) feeding a leaky node, CRC workload looping over the full
/// 10 s trace (stop_on_completion off — survival means riding out the
/// whole trace, not finishing one pass). Macro-stepping collapses the
/// outage tails the small-C candidates spend most of the trace in.
spec::SystemSpec demo_spec() {
  spec::SystemSpec s;
  trace::WindTurbineSource::Params wind;
  wind.peak_voltage = 5.0;
  wind.peak_frequency = 6.0;
  s.source = spec::WindSource{wind, 3, 10.0};
  s.storage.capacitance = 10e-6;
  s.storage.bleed = 10000.0;
  s.workload.kind = "crc";
  s.workload.seed = 9;
  s.sim.t_end = 10.0;
  s.sim.stop_on_completion = false;
  s.sim.macro_stepping = true;
  return s;
}

/// Mutates the source's fundamental frequency in place, whatever family
/// the spec carries (the axis requires a frequency-bearing source).
void set_source_frequency(spec::SystemSpec& s, double x) {
  if (auto* sine = std::get_if<spec::SineSource>(&s.source)) {
    sine->frequency = x;
  } else if (auto* square = std::get_if<spec::SquareSource>(&s.source)) {
    square->frequency = x;
  } else if (auto* wind = std::get_if<spec::WindSource>(&s.source)) {
    wind->params.peak_frequency = x;
  } else {
    throw std::invalid_argument(
        "--axis frequency needs a sine, square or wind source");
  }
}

void set_source_duty(spec::SystemSpec& s, double x) {
  if (auto* square = std::get_if<spec::SquareSource>(&s.source)) {
    square->duty = x;
  } else {
    throw std::invalid_argument("--axis duty needs a square source");
  }
}

void set_source_amplitude(spec::SystemSpec& s, double x) {
  if (auto* sine = std::get_if<spec::SineSource>(&s.source)) {
    sine->amplitude = x;
  } else if (auto* square = std::get_if<spec::SquareSource>(&s.source)) {
    square->high = x;
  } else if (auto* dc = std::get_if<spec::DcSource>(&s.source)) {
    dc->voltage = x;
  } else if (auto* wind = std::get_if<spec::WindSource>(&s.source)) {
    wind->params.peak_voltage = x;
  } else {
    throw std::invalid_argument(
        "--axis amplitude needs a sine, square, dc or wind source");
  }
}

sweep::SearchAxis make_axis(const std::string& name) {
  if (name == "capacitance") {
    return {"capacitance (F)",
            [](spec::SystemSpec& s, double x) { s.storage.capacitance = x; },
            [](double x) { return sim::Table::eng(x, "F", 1); }};
  }
  if (name == "bleed") {
    return {"bleed (Ohm)",
            [](spec::SystemSpec& s, double x) { s.storage.bleed = x; },
            {}};
  }
  if (name == "t-end") {
    return {"t_end (s)", [](spec::SystemSpec& s, double x) { s.sim.t_end = x; },
            {}};
  }
  if (name == "frequency") {
    return {"frequency (Hz)", set_source_frequency, {}};
  }
  if (name == "duty") {
    return {"duty", set_source_duty, {}};
  }
  if (name == "amplitude") {
    return {"amplitude (V)", set_source_amplitude, {}};
  }
  throw std::invalid_argument("unknown --axis '" + name + "'");
}

sweep::SearchObjective make_objective(const std::string& name, double target) {
  if (name == "completed") {
    // One row per variant: a fleet probe passes only when every node does.
    return [](double, const std::vector<sim::SimResult>& rows) {
      for (const sim::SimResult& row : rows) {
        if (!row.mcu.completed) return -1.0;
      }
      return 1.0;
    };
  }
  if (name == "brownouts") {
    return [target](double, const std::vector<sim::SimResult>& rows) {
      return (target + 0.5) - static_cast<double>(rows[0].mcu.brownouts);
    };
  }
  if (name == "forward-cycles") {
    return [target](double, const std::vector<sim::SimResult>& rows) {
      return rows[0].mcu.forward_cycles - target + 0.5;
    };
  }
  if (name == "final-energy") {
    return [target](double, const std::vector<sim::SimResult>& rows) {
      return rows[0].stored_final - target;
    };
  }
  throw std::invalid_argument("unknown --objective '" + name + "'");
}

/// A flag value: a finite number, or a whole unsigned decimal count
/// (std::from_chars takes no sign, space, fraction or exponent, and reports
/// values past size_t as out of range).
bool parse_arg(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}
bool parse_arg(const char* text, std::size_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

/// Largest --lattice/--log-lattice: bisection needs ~20 probes here, and a
/// larger lattice only costs memory (8 bytes a point).
constexpr std::size_t kMaxLattice = std::size_t{1} << 20;

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool fleet_demo = false;
  bool print_spec = false;
  const char* spec_path = nullptr;
  std::string axis_name = "capacitance";
  std::string objective_name = "brownouts";
  double target = 0.0;
  double lo = 1e-6;
  double hi = 1e-3;
  bool hi_overridden = false;
  double tol = 1e-6;
  std::size_t lattice_n = 0;
  bool log_lattice = false;
  std::size_t max_probes = 64;
  std::optional<sweep::Cache> cache;
  // The last flag given that --fleet-demo has no use for.
  const char* non_fleet_flag = nullptr;

  for (int i = 1; i < argc; ++i) {
    const auto value_flag = [&](const char* flag, auto& out) {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return false;
      if (!parse_arg(argv[i + 1], out)) {
        std::fprintf(stderr, "%s needs %s, got '%s'\n", flag,
                     std::is_same_v<decltype(out), double&> ? "a finite number"
                                                            : "a whole number in range",
                     argv[i + 1]);
        std::exit(2);
      }
      ++i;
      return true;
    };
    for (const char* flag : {"--axis", "--objective", "--target", "--tol",
                             "--lattice", "--print-spec"}) {
      if (std::strcmp(argv[i], flag) == 0) non_fleet_flag = flag;
    }
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--fleet-demo") == 0) {
      fleet_demo = true;
    } else if (std::strcmp(argv[i], "--print-spec") == 0) {
      print_spec = true;
    } else if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (std::strcmp(argv[i], "--axis") == 0 && i + 1 < argc) {
      axis_name = argv[++i];
    } else if (std::strcmp(argv[i], "--objective") == 0 && i + 1 < argc) {
      objective_name = argv[++i];
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      cache.emplace(argv[++i]);
    } else if (value_flag("--hi", hi)) {
      hi_overridden = true;
    } else if (value_flag("--target", target) || value_flag("--lo", lo) ||
               value_flag("--tol", tol) || value_flag("--max-probes", max_probes)) {
      // parsed in the condition
    } else if (value_flag("--lattice", lattice_n)) {
      log_lattice = false;
    } else if (value_flag("--log-lattice", lattice_n)) {
      log_lattice = true;
    } else {
      return usage(argv[0]);
    }
  }
  if ((demo ? 1 : 0) + (fleet_demo ? 1 : 0) + (spec_path != nullptr ? 1 : 0) != 1) {
    std::fprintf(stderr,
                 "pick exactly one of --demo / --fleet-demo / --spec FILE\n");
    return usage(argv[0]);
  }
  if (fleet_demo && non_fleet_flag != nullptr) {
    std::fprintf(stderr,
                 "--fleet-demo does not take %s: it brackets capacitance for "
                 "the every-node-completes objective on a geometric lattice\n",
                 non_fleet_flag);
    return 2;
  }

  // The query every mode feeds to the one search-and-report path below.
  spec::SystemSpec base;
  std::string title;
  std::string variant_axis;
  std::vector<sweep::AxisValue> variants;
  if (fleet_demo) {
    // The smallest node capacitance at which *every* coupled node rides its
    // staggered harvest windows to workload completion. The fleet's node
    // axis becomes the search's variant axis: each probe simulates all N
    // lowered nodes at the candidate C, and the "completed" objective sees
    // all their rows. The example fleet is homogeneous apart from the
    // lowered per-node source, so the variants substitute only the source;
    // the capacitance axis (applied first, see sweep::Grid axis order) then
    // composes with every variant.
    const spec::FleetSpec fleet = spec::example_rf_fleet(3);
    base = fleet.nodes[0];
    title = "fleet design query: min capacitance completing all " +
            std::to_string(fleet.size()) + " shared-RF nodes";
    variant_axis = "node";
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      variants.push_back({"node" + std::to_string(i),
                          [source = spec::fleet_node_spec(fleet, i).source](
                              spec::SystemSpec& s) { s.source = source; }});
    }
    objective_name = "completed";
    // The generic 1 mF ceiling is past the fleet's pass band (a huge node
    // never charges to v_on through its duty-cycled window inside the
    // horizon, so both endpoints would fail). Default to the example
    // node's own 220 uF, a known all-complete endpoint.
    if (!hi_overridden) hi = base.storage.capacitance;
    log_lattice = true;
    if (lattice_n == 0) lattice_n = 17;  // 16 geometric cells across [lo, hi]
  } else {
    char target_text[32];
    std::snprintf(target_text, sizeof(target_text), "%g", target);
    title = "design query: " + objective_name + " vs " + axis_name +
            " (objective " + objective_name + ", target " + target_text + ")";
  }

  if (!(lo < hi) || !(tol > 0.0) || max_probes < 2 ||
      (lattice_n != 0 && (lattice_n < 2 || lattice_n > kMaxLattice))) {
    std::fprintf(stderr, "need --lo < --hi, --tol > 0, --max-probes >= 2 and "
                         "--lattice/--log-lattice in [2, %zu]\n", kMaxLattice);
    return 2;
  }
  if (log_lattice && !(lo > 0.0)) {
    std::fprintf(stderr, "--log-lattice needs --lo > 0\n");
    return 2;
  }
  // A contraction reports the dense-equivalent resolution: the grid a
  // tolerance-matched linear sweep would need (one point per tol-sized
  // cell, inclusive ends). hi - lo may overflow to inf.
  const double contract_cells = std::ceil((hi - lo) / tol);
  if (lattice_n == 0 && !(contract_cells < 0x1p64)) {
    std::fprintf(stderr, "--tol %g over [%g, %g] needs more dense-equivalent "
                         "points than a count can hold\n", tol, lo, hi);
    return 2;
  }

  if (demo) {
    base = demo_spec();
  } else if (spec_path != nullptr) {
    std::string text;
    if (std::strcmp(spec_path, "-") == 0) {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      text = buffer.str();
    } else {
      std::ifstream in(spec_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot open spec '%s'\n", spec_path);
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    try {
      base = spec::parse_spec(text);
    } catch (const spec::SpecFormatError& error) {
      std::fprintf(stderr, "bad spec '%s': %s\n", spec_path, error.what());
      return 1;
    }
  }
  if (print_spec) {
    std::cout << spec::document(base);
    return 0;
  }

  sweep::SearchOptions options;
  options.max_probes = max_probes;
  if (cache.has_value()) options.runner.cache = &*cache;

  try {
    const sweep::SearchAxis axis = make_axis(axis_name);
    sweep::Search search(base, axis, variant_axis, variants,
                         make_objective(objective_name, target), options);
    sweep::SearchOutcome outcome;
    std::size_t dense_points = 0;
    if (lattice_n > 0) {
      std::vector<double> lattice;
      lattice.reserve(lattice_n);
      for (std::size_t i = 0; i < lattice_n; ++i) {
        const double t = static_cast<double>(i) / static_cast<double>(lattice_n - 1);
        lattice.push_back(log_lattice ? lo * std::pow(hi / lo, t)
                                      : lo + (hi - lo) * t);
      }
      dense_points = lattice.size();
      outcome = search.bracket_on(lattice);
    } else {
      dense_points = static_cast<std::size_t>(contract_cells) + 1;
      outcome = search.contract(lo, hi, tol);
    }
    dense_points *= std::max<std::size_t>(1, variants.size());  // a row per variant

    sim::Table table({"probe", axis_name, "objective", "origin"});
    for (std::size_t i = 0; i < outcome.probes.size(); ++i) {
      const sweep::SearchProbe& probe = outcome.probes[i];
      table.add_row({std::to_string(i),
                     axis.label ? axis.label(probe.x) : sim::Table::num(probe.x, 9),
                     sim::Table::num(probe.value, 3),
                     probe.warm == 0 ? "fresh"
                                     : (probe.simulated == 0 ? "warm" : "mixed")});
    }
    std::printf("=== %s ===\n\n", title.c_str());
    table.print(std::cout);

    const bool pass_high = outcome.direction > 0;
    std::printf("\nthreshold bracket: fails at %s = %.9g, passes at %.9g\n",
                axis_name.c_str(), pass_high ? outcome.lo : outcome.hi,
                pass_high ? outcome.hi : outcome.lo);
    std::printf("simulated %zu of %zu dense-equivalent points, %zu replayed "
                "warm (%zu probes)\n",
                outcome.simulated_points(), dense_points, outcome.warm_points(),
                outcome.probe_count());
  } catch (const sweep::SearchError& error) {
    std::fprintf(stderr, "search failed (%s): %s\n",
                 sweep::search_error_kind_name(error.kind()), error.what());
    return 1;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }

  if (cache.has_value()) {
    const sweep::CacheStats stats = cache->stats();
    std::fprintf(stderr, "cache: %llu hits, %llu misses, %llu stored\n",
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(stats.stores));
  }
  return 0;
}
