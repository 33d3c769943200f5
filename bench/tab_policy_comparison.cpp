// §II.B quantitative evaluation (ENSsys'15 [13] style): every checkpointing
// approach on the same intermittent supplies.
//
// For each (source x policy) cell the harness reports: completion, time to
// completion, committed/torn snapshots, restores, forward vs re-executed
// cycles, policy overhead (ADC polls/calibration) and total MCU energy.
// The full grid runs on the parallel sweep engine; the shape claims of the
// paper are then checked: hibernus saves once per outage where Mementos
// saves redundantly and re-executes; the baseline without checkpointing
// makes no forward progress at all.
//
// The whole grid is cacheable (every cell is plain spec data — the FFT-2048
// workload is the standard "fft-large" kind, not a factory callback), so
//
//   tab_policy_comparison --cache /tmp/edc-cache    # cold: simulates 21 points
//   tab_policy_comparison --cache /tmp/edc-cache    # warm: simulates 0 points
//
// produces a bit-identical table on the second run while simulating
// nothing. Cache statistics go to stderr, so stdout stays byte-comparable
// between cold and warm runs (scripts/cache_smoke.cmake relies on this).
//
// --trace-dir DIR swaps the synthetic source axis for a measured-dataset
// axis: one grid column per "time,volts" CSV in DIR (label = filename,
// via Grid::voltage_trace_dir_axis), so comparing every policy across a
// directory of recorded harvester traces is a one-liner:
//
//   tab_policy_comparison --trace-dir datasets/office/
//
// Shape checks are skipped in that mode — they are tuned to the synthetic
// sources. A directory that is missing, holds no *.csv, or holds a trace
// that does not load exits 2 with the reason on stderr and nothing on
// stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common_flags.h"
#include "edc/core/system.h"
#include "edc/sim/table.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

using namespace edc;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<sweep::Cache> cache;
  const char* trace_dir = nullptr;
  bench::FlagParser flags;
  flags.on_value("--cache", "DIR", [&](const char* v) { cache.emplace(v); return true; })
      .on_value("--trace-dir", "DIR",
                [&](const char* v) { trace_dir = v; return true; });
  if (!flags.parse(argc, argv)) return 2;

  spec::SystemSpec base;
  base.storage.capacitance = 22e-6;
  base.storage.bleed = 10000.0;
  base.workload.kind = "fft-large";
  base.workload.seed = 17;
  base.sim.t_end = 40.0;

  checkpoint::InterruptPolicy::Config interrupt_config;
  interrupt_config.restore_headroom = 0.3;

  checkpoint::MementosPolicy::Config mementos_loop;
  mementos_loop.mode = checkpoint::MementosPolicy::Mode::loop;
  mementos_loop.poll_stride = 4;
  checkpoint::MementosPolicy::Config mementos_timer;
  mementos_timer.mode = checkpoint::MementosPolicy::Mode::timer;
  mementos_timer.timer_interval = 10e-3;

  sweep::Grid grid(std::move(base));
  if (trace_dir != nullptr) {
    // Measured-dataset mode: one source column per recorded trace in the
    // directory, everything else identical.
    try {
      grid.voltage_trace_dir_axis("source", trace_dir);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "--trace-dir: %s\n", error.what());
      return 2;
    }
  } else {
    grid.axis("source",
              {{"square-10Hz",
                [](spec::SystemSpec& s) {
                  s.source = spec::SquareSource{3.3, 10.0, 0.4, 0.0, 50.0};
                }},
               {"sine-4Hz",
                [](spec::SystemSpec& s) { s.source = spec::SineSource{3.3, 4.0}; }},
               {"markov-rf",
                [](spec::SystemSpec& s) {
                  s.source = spec::MarkovPower{6e-3, 0.05, 0.05, 77, 40.0};
                }}});
  }
  grid.axis("policy",
            {{"none (restart)",
              [](spec::SystemSpec& s) { s.policy = spec::NoCheckpoint{}; }},
             {"mementos-loop",
              [mementos_loop](spec::SystemSpec& s) {
                s.policy = spec::Mementos{mementos_loop};
              }},
             {"mementos-timer",
              [mementos_timer](spec::SystemSpec& s) {
                s.policy = spec::Mementos{mementos_timer};
              }},
             {"quickrecall",
              [interrupt_config](spec::SystemSpec& s) {
                s.policy = spec::QuickRecall{interrupt_config};
              }},
             {"nvp",
              [interrupt_config](spec::SystemSpec& s) {
                s.policy = spec::Nvp{interrupt_config};
              }},
             {"hibernus",
              [interrupt_config](spec::SystemSpec& s) {
                s.policy = spec::Hibernus{interrupt_config};
              }},
             {"hibernus++",
              [](spec::SystemSpec& s) { s.policy = spec::HibernusPlusPlus{}; }}});

  std::printf("=== Policy comparison across sources (ENSsys'15-style, FFT-2048) ===\n");

  sweep::RunnerOptions options;
  if (cache.has_value()) options.cache = &*cache;
  const sweep::Runner runner(options);
  sweep::RunReport report;
  const auto cells = runner.run(grid, &report);

  // Per-point wall-time summary on stderr (stdout stays byte-comparable
  // across cold/warm runs): on a warm cache these are the points' original
  // simulation costs replayed from the entries.
  double micros_total = 0.0, micros_max = 0.0;
  for (const double m : report.micros) {
    micros_total += m;
    micros_max = std::max(micros_max, m);
  }
  std::fprintf(stderr, "points: %zu, wall time %.0f us total, %.0f us max\n",
               grid.size(), micros_total, micros_max);

  if (cache.has_value()) {
    const sweep::CacheStats stats = cache->stats();
    std::fprintf(stderr,
                 "cache: %llu hits, %llu misses, %llu stored, %llu non-cacheable; "
                 "simulated %llu of %zu points\n",
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(stats.stores),
                 static_cast<unsigned long long>(stats.non_cacheable),
                 static_cast<unsigned long long>(stats.misses + stats.non_cacheable),
                 grid.size());
  }

  // Row-major order: source outer, policy inner.
  const auto& sources = grid.axes()[0].values;
  const auto& policies = grid.axes()[1].values;
  const auto at = [&](std::size_t s_index, std::size_t p_index) -> const sim::SimResult& {
    return cells[s_index * policies.size() + p_index];
  };

  for (std::size_t s = 0; s < sources.size(); ++s) {
    std::printf("\n--- source: %s ---\n", sources[s].label.c_str());
    sim::Table table({"policy", "done", "t_done (s)", "saves", "torn", "restores",
                      "fwd Mcyc", "re-exec Mcyc", "overhead Mcyc", "energy (mJ)"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const sim::SimResult& cell = at(s, p);
      const auto& m = cell.mcu;
      table.add_row({policies[p].label, m.completed ? "yes" : "NO",
                     m.completed ? sim::Table::num(m.completion_time, 2) : "-",
                     std::to_string(m.saves_completed),
                     std::to_string(cell.nvm_torn_writes),
                     std::to_string(m.restores),
                     sim::Table::num(m.forward_cycles / 1e6, 2),
                     sim::Table::num(m.reexecuted_cycles / 1e6, 2),
                     sim::Table::num(m.poll_cycles / 1e6, 2),
                     sim::Table::num(m.energy_total() * 1e3, 2)});
    }
    table.print(std::cout);
  }

  if (trace_dir != nullptr) {
    std::printf("\n(--trace-dir mode: shape checks skipped — they are tuned "
                "for the synthetic sources)\n");
    return 0;
  }

  // Select the shape-check cells by axis label, so reordering an axis
  // cannot silently re-aim a check at the wrong cell.
  const auto labelled = [](const std::vector<sweep::AxisValue>& values,
                           const std::string& label) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i].label == label) return i;
    }
    std::fprintf(stderr, "axis value '%s' not found\n", label.c_str());
    std::abort();
  };
  const std::size_t square = labelled(sources, "square-10Hz");
  const sim::SimResult& square_none = at(square, labelled(policies, "none (restart)"));
  const sim::SimResult& square_mementos = at(square, labelled(policies, "mementos-loop"));
  const sim::SimResult& square_qr = at(square, labelled(policies, "quickrecall"));
  const sim::SimResult& square_hibernus = at(square, labelled(policies, "hibernus"));

  std::printf("\nShape checks vs the paper (square-10Hz column):\n");
  check(!square_none.mcu.completed,
        "without checkpointing the workload never completes (restart loop)");
  check(square_hibernus.mcu.completed && square_mementos.mcu.completed,
        "both Mementos and hibernus complete the workload");
  check(square_hibernus.mcu.saves_completed < square_mementos.mcu.saves_completed,
        "hibernus commits fewer snapshots than Mementos (one per outage)");
  check(square_hibernus.mcu.saves_completed <= square_hibernus.mcu.brownouts + 1,
        "hibernus: at most one committed snapshot per supply failure");
  check(square_mementos.mcu.poll_cycles > square_hibernus.mcu.poll_cycles,
        "Mementos pays ADC polling overhead; hibernus is interrupt-driven");
  check(square_hibernus.mcu.completed && square_qr.mcu.completed &&
            square_hibernus.mcu.completion_time > 0 &&
            square_qr.mcu.completion_time > 0,
        "QuickRecall and hibernus both sustain computation (Eq 5 decides winner)");
  check(square_hibernus.mcu.reexecuted_cycles <= square_mementos.mcu.reexecuted_cycles,
        "late (interrupt-driven) snapshots minimise re-executed work");

  std::printf("\n%s\n", g_failures == 0 ? "ALL SHAPE CHECKS PASSED"
                                        : "SOME SHAPE CHECKS FAILED");
  return g_failures == 0 ? 0 : 1;
}
