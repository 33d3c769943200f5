// Eq 5 — The hibernus vs QuickRecall crossover.
//
// Unified-FRAM execution (QuickRecall) pays a constant power premium but
// snapshots almost nothing; SRAM execution (hibernus) is cheaper to run but
// pays a full RAM copy (plus restore) per outage. Eq 5 predicts the
// break-even supply interruption frequency:
//
//     f_crossover = (P_FRAM - P_SRAM) / (E_hibernus - E_quickrecall)
//
// The bench sweeps the interruption frequency of a square-wave supply on a
// leaky 10 uF node (so outages stay real across the sweep) with the sweep
// engine (f x policy grid), measures total MCU energy per unit of forward
// progress for both policies, and compares the empirical crossover against
// the analytic prediction.
//
// --macro macro-steps the whole grid and --batch runs it through the
// batched SoA kernel (sweep/batch.h); the shape checks run in every mode.
//
// The solver-guided form of the same question (sweep::Search bisecting a
// refined 49-frequency lattice for the crossover cell) is pinned, with its
// probe budget, in tests/search_test.cpp.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common_flags.h"
#include "edc/checkpoint/thresholds.h"
#include "edc/core/system.h"
#include "edc/sim/table.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"
#include "edc/workloads/fft.h"

using namespace edc;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

double joules_per_mcycle(const sim::SimResult& result) {
  if (result.mcu.forward_cycles <= 1000.0) {
    return std::numeric_limits<double>::infinity();
  }
  return result.mcu.energy_total() / (result.mcu.forward_cycles / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  bool macro = false;
  bool batch = false;
  bench::FlagParser flags;
  // Event-horizon macro-stepping across the whole grid: the low-f points
  // are outage-dominated (long brown-out tails), which is exactly the
  // regime the macro stepper collapses to O(1) per span.
  flags.on("--macro", [&] { macro = true; })
      // Batched SoA execution (sweep/batch.h): the two policies at each
      // interrupt frequency share a source, so they step as one two-lane
      // group. Rows are bit-identical to the scalar path.
      .on("--batch", [&] { batch = true; });
  if (!flags.parse(argc, argv)) return 2;

  mcu::McuPowerModel power;
  workloads::FftProgram probe_program(10, 5);
  const std::size_t image = probe_program.ram_footprint();
  const Hertz predicted =
      checkpoint::crossover_frequency_for_image(power, image, 8e6, 3.0);

  // Margin sized for the strong board bleed that drains the node in
  // parallel with the save (see Eq 4 discussion in DESIGN.md).
  checkpoint::InterruptPolicy::Config config;
  config.margin = 3.0;
  config.restore_headroom = 0.15;

  spec::SystemSpec base;
  base.storage.capacitance = 10e-6;
  base.storage.bleed = 1000.0;
  base.workload.kind = "fft";  // FftProgram(10, seed) — pure data, cacheable
  base.workload.seed = 5;
  base.sim.t_end = 20.0;
  base.sim.macro_stepping = macro;

  const std::vector<Hertz> sweep = {5, 10, 20, 40, 80, 160, 320};
  sweep::Grid grid(base);
  grid.numeric_axis(
          "f_interrupt (Hz)", sweep,
          [](spec::SystemSpec& s, double f) {
            s.source = spec::SquareSource{3.3, f, 0.5, 0.0, 50.0};
          },
          [](double f) { return sim::Table::num(f, 0); })
      .axis("policy",
            {{"hibernus",
              [config](spec::SystemSpec& s) { s.policy = spec::Hibernus{config}; }},
             {"quickrecall",
              [config](spec::SystemSpec& s) { s.policy = spec::QuickRecall{config}; }}});

  sweep::RunnerOptions options;
  options.batch = batch;
  const sweep::Runner runner(options);

  std::printf("=== Eq 5: hibernus vs QuickRecall crossover frequency ===\n\n");

  const Watts p_fram = power.active_current(8e6, mcu::MemoryMode::unified_fram) * 3.0;
  const Watts p_sram = power.active_current(8e6, mcu::MemoryMode::sram_execution) * 3.0;
  std::printf("P_FRAM = %.2f mW, P_SRAM = %.2f mW (at 8 MHz, 3 V)\n", p_fram * 1e3,
              p_sram * 1e3);
  std::printf("RAM image: %zu B (+%zu B registers)\n", image,
              power.register_file_bytes);
  std::printf("Eq 5 predicted crossover: %.0f Hz "
              "(50%% supply duty halves the usable on-time => expect ~%.0f Hz)\n\n",
              predicted, predicted / 2);

  const auto results = runner.run(grid);

  // Row-major order: frequency outer, policy inner.
  const auto at = [&](std::size_t f_index, std::size_t p_index) -> const sim::SimResult& {
    return results[f_index * 2 + p_index];
  };

  sim::Table table({"f_interrupt (Hz)", "hibernus (uJ/Mcycle)",
                    "quickrecall (uJ/Mcycle)", "winner", "hib saves", "qr saves"});
  Hertz empirical_crossover = 0.0;
  bool previous_hibernus_wins = true;
  bool first = true;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double hibernus = joules_per_mcycle(at(i, 0));
    const double quickrecall = joules_per_mcycle(at(i, 1));
    const bool hibernus_wins = hibernus <= quickrecall;
    if (!first && previous_hibernus_wins && !hibernus_wins &&
        empirical_crossover == 0.0) {
      empirical_crossover = sweep[i];
    }
    previous_hibernus_wins = hibernus_wins;
    first = false;
    auto fmt = [](double v) {
      return std::isinf(v) ? std::string("no progress") : sim::Table::num(v * 1e6, 2);
    };
    table.add_row({sim::Table::num(sweep[i], 0), fmt(hibernus), fmt(quickrecall),
                   hibernus_wins ? "hibernus" : "quickrecall",
                   std::to_string(at(i, 0).mcu.saves_completed),
                   std::to_string(at(i, 1).mcu.saves_completed)});
  }
  table.print(std::cout);

  std::printf("\nEmpirical crossover: first quickrecall win at %.0f Hz\n",
              empirical_crossover);

  std::printf("\nShape checks vs the paper:\n");
  check(predicted > 0.0, "Eq 5 yields a positive crossover for FRAM > SRAM power");
  check(empirical_crossover > 0.0, "a crossover exists within the sweep");
  check(empirical_crossover >= predicted / 8 && empirical_crossover <= predicted * 8,
        "empirical crossover within an order of magnitude of Eq 5");
  check(joules_per_mcycle(at(0, 0)) < joules_per_mcycle(at(0, 1)),
        "at low interruption rates hibernus is more efficient (SRAM execution)");

  std::printf("\n%s\n", g_failures == 0 ? "ALL SHAPE CHECKS PASSED"
                                        : "SOME SHAPE CHECKS FAILED");
  return g_failures == 0 ? 0 : 1;
}
