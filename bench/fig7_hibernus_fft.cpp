// Fig 7 — A hibernus system executing an FFT directly from a half-wave
// rectified sine-wave supply.
//
// When V_CC decays through V_H the system snapshots and sleeps; when the
// supply recovers through V_R the snapshot is restored; the FFT that began
// at the beginning of execution completes a few supply cycles later. The
// bench plots the V_CC waveform with the V_H / V_R markers, lists the
// hibernate/restore event timeline, and checks the Fig 7 shape.
//
// --macro runs the same system with quiescent-engine macro-stepping
// (SimConfig::macro_stepping) and reports the wall-clock speedup plus the
// macro-vs-fine deltas next to the usual shape checks, which then validate
// the *macro* result — the accuracy contract, exercised on the actual
// paper figure. It also runs the *harvesting-gap survey*: the same Fig 7
// system riding 0.5 s bursts of the 6 Hz sine separated by the paper's
// decay-to-zero intervals (save -> sleep -> brown-out -> dead node between
// energy arrivals), the regime energy-driven devices actually live in.
// There the engine's analytic sleep/off/dead spans collapse the gaps to
// O(1), the trace's quiet-segment index claims the sub-conduction arcs
// inside each burst, and the headline speedup lands in the 25x class
// (recorded per push in BENCH_7.json as BM_MacroPair/Fig7Gapped_*). The
// *charge-ramp survey* swaps the sine bursts for DC bursts, where the
// exact charge certificates (circuit::AffineSolution) make every charging
// ramp analytic too — the 40x class, gated at 25x.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>

#include "common_flags.h"
#include "edc/checkpoint/interrupt_policy.h"
#include "edc/core/system.h"
#include "edc/sim/ascii_plot.h"
#include "edc/sim/result_io.h"
#include "edc/sim/table.h"
#include "edc/spec/system_spec.h"
#include "edc/workloads/fft.h"
#include "fig7_scenarios.h"
#include "macro_survey.h"

using namespace edc;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

core::EnergyDrivenSystem build_system(bool macro_stepping) {
  core::SystemBuilder builder;
  checkpoint::InterruptPolicy::Config policy_config;
  // The board bleed drains the node in parallel with the save, so Eq 4's
  // margin must cover snapshot energy plus bleed-share (DESIGN.md §4).
  policy_config.margin = 2.2;
  policy_config.restore_headroom = 0.35;
  sim::SimConfig sim_config;
  sim_config.macro_stepping = macro_stepping;
  return builder.sine_source(3.3, 6.0)
      .capacitance(47e-6)
      .bleed(3000.0)
      .program(std::make_unique<workloads::FftProgram>(11, 7))
      .policy_hibernus(policy_config)
      .sim_config(sim_config)
      .probe(0.5e-3)
      .build();
}

double figure_wall_millis(core::EnergyDrivenSystem& system, sim::SimResult& result) {
  const auto start = std::chrono::steady_clock::now();
  result = system.run(2.0);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// bench/macro_survey.h owns the gate-critical best-of-N timing loop; the
// surveys here measure the exact scenarios BM_MacroPair/Fig7Gapped_* and
// Fig7ChargeRamp_* record in BENCH_7.json (bench/fig7_scenarios.h), so
// the gates and the recorded trajectory stay comparable by construction.
using macro_survey::span_coverage;
using macro_survey::wall_millis;

}  // namespace

int main(int argc, char** argv) {
  bool macro = false;
  bool batch = false;
  bench::FlagParser flags;
  flags.on("--macro", [&] { macro = true; }).on("--batch", [&] { batch = true; });
  if (!flags.parse(argc, argv)) return 2;

  std::printf("=== Fig 7: hibernus running an FFT from a half-wave rectified sine ===\n\n");

  if (batch) {
    // Batched-sweep survey: the Fig 7 design point across 16 node
    // capacitances (bench/fig7_scenarios.h — the exact grid
    // BM_BatchPair/Fig7Survey_* records in BENCH_7.json), scalar runner
    // vs the SoA batch kernel, single worker thread in both legs. The
    // rows must be *bit-identical* — the batch kernel replays the scalar
    // loop per lane and only restructures the node ODE arithmetic — so
    // the gate also re-proves the identity contract on the gated grid.
    const sweep::Grid grid = fig7::batch_survey_grid();
    std::vector<sim::SimResult> scalar_rows, batch_rows;
    const double scalar_ms =
        macro_survey::sweep_wall_millis(grid, scalar_rows, false, /*repeats=*/2);
    const double batch_ms =
        macro_survey::sweep_wall_millis(grid, batch_rows, true, /*repeats=*/5);
    const double speedup = scalar_ms / batch_ms;
    std::printf("batched-sweep survey (16-lane capacitance grid, 6 Hz sine): "
                "%.1f ms batch vs %.1f ms scalar (%.2fx)\n",
                batch_ms, scalar_ms, speedup);
    bool identical = scalar_rows.size() == batch_rows.size();
    for (std::size_t i = 0; identical && i < scalar_rows.size(); ++i) {
      identical = sim::serialize_result(scalar_rows[i]) ==
                  sim::serialize_result(batch_rows[i]);
    }
    check(identical, "batch rows are bit-identical to the scalar rows");
    // An uncontended Release build measures ~2.4x here (BENCH_7.json):
    // the sine is evaluated once per substep instead of once per lane and
    // the lane ODE vectorizes, while the per-lane MCU/policy machinery
    // (identical in both legs by the bit-identity contract) bounds the
    // ratio. The hard gate sits at 1.6x so shared-runner noise has
    // headroom while a regression to scalar-equivalent (~1x) still fails
    // loudly.
    check(speedup >= 1.6,
          "batched-sweep speedup is in the >=2.4x class "
          "(hard gate at 1.6x for contended-runner headroom)");
    std::printf("\n");
  }

  const Hertz supply_hz = 6.0;
  workloads::FftProgram golden(11, 7);
  const std::uint64_t golden_digest_value = workloads::golden_digest(golden);

  auto system = build_system(macro);
  const auto& policy = dynamic_cast<const checkpoint::InterruptPolicy&>(system.policy());
  const Volts v_h = policy.hibernate_threshold();
  const Volts v_r = policy.restore_threshold();

  sim::SimResult result;
  const double millis = figure_wall_millis(system, result);

  if (macro) {
    // Reference run for the speedup figure and the accuracy deltas.
    auto fine_system = build_system(false);
    sim::SimResult fine;
    const double fine_millis = figure_wall_millis(fine_system, fine);
    std::printf("macro-stepping: %.1f ms vs %.1f ms fine (%.1fx); deltas: "
                "harvested %+.3g J, consumed %+.3g J, completion %+.3g ms\n",
                millis, fine_millis, fine_millis / millis,
                result.harvested - fine.harvested, result.consumed - fine.consumed,
                (result.mcu.completion_time - fine.mcu.completion_time) * 1e3);

    // Harvesting-gap survey: the regime the quiescent engine is built for.
    sim::SimResult gap_macro, gap_fine;
    const double gap_macro_millis =
        wall_millis(fig7::gapped_spec(), gap_macro, true, /*repeats=*/5);
    const double gap_fine_millis =
        wall_millis(fig7::gapped_spec(), gap_fine, false, /*repeats=*/2);
    const double speedup = gap_fine_millis / gap_macro_millis;
    std::printf("harvesting-gap survey (0.5 s sine bursts / 10 s, 20 s horizon): "
                "%.1f ms vs %.1f ms fine (%.1fx, %.1f%% of steps analytic); "
                "deltas: harvested %+.3g J, consumed %+.3g J\n",
                gap_macro_millis, gap_fine_millis, speedup,
                100.0 * span_coverage(gap_macro),
                gap_macro.harvested - gap_fine.harvested,
                gap_macro.consumed - gap_fine.consumed);
    // An uncontended Release build measures ~25x here (BENCH_7.json: the
    // trace's quiet-segment index claims the sub-conduction arcs inside
    // each sine burst on top of PR 4's sleep/off/dead gap spans, which
    // measured 8-9x). The hard gate sits at 15x: scheduler noise on a
    // shared CI runner has headroom while a regression to the PR 4 class
    // still fails loudly.
    check(speedup >= 15.0,
          "harvesting-gap survey macro speedup is in the >=25x class "
          "(hard gate at 15x for contended-runner headroom)");
    check(gap_macro.mcu.saves_completed == gap_fine.mcu.saves_completed &&
              gap_macro.mcu.restores == gap_fine.mcu.restores &&
              gap_macro.mcu.brownouts == gap_fine.mcu.brownouts &&
              gap_macro.transitions.size() == gap_fine.transitions.size(),
          "gap-survey event sequence matches the fine path");

    // Charge-ramp survey: DC bursts make every charging ramp one analytic
    // span (circuit::AffineSolution), the regime exact certificates
    // exist for.
    sim::SimResult ramp_macro, ramp_fine;
    const double ramp_macro_millis =
        wall_millis(fig7::charge_ramp_spec(), ramp_macro, true, /*repeats=*/5);
    const double ramp_fine_millis =
        wall_millis(fig7::charge_ramp_spec(), ramp_fine, false, /*repeats=*/2);
    const double ramp_speedup = ramp_fine_millis / ramp_macro_millis;
    std::printf("charge-ramp survey (0.5 s DC bursts / 10 s, 20 s horizon): "
                "%.1f ms vs %.1f ms fine (%.1fx, %.1f%% of steps analytic); "
                "deltas: harvested %+.3g J, consumed %+.3g J\n\n",
                ramp_macro_millis, ramp_fine_millis, ramp_speedup,
                100.0 * span_coverage(ramp_macro),
                ramp_macro.harvested - ramp_fine.harvested,
                ramp_macro.consumed - ramp_fine.consumed);
    check(ramp_speedup >= 25.0,
          "charge-ramp survey macro speedup is in the >=40x class "
          "(hard gate at 25x for contended-runner headroom)");
    check(ramp_macro.mcu.boots == ramp_fine.mcu.boots &&
              ramp_macro.mcu.saves_completed == ramp_fine.mcu.saves_completed &&
              ramp_macro.mcu.brownouts == ramp_fine.mcu.brownouts &&
              ramp_macro.transitions.size() == ramp_fine.transitions.size(),
          "charge-ramp survey event sequence matches the fine path");
  }

  const auto* vcc = result.probes.find("vcc");
  if (vcc != nullptr) {
    sim::PlotOptions options;
    options.title = "V_CC while executing the FFT across the intermittent supply";
    options.y_label = "V_CC (V)";
    options.width = 110;
    options.height = 18;
    sim::plot_with_markers(std::cout, "vcc", *vcc, {{v_h, "VH"}, {v_r, "VR"}}, options);
  }

  std::printf("\nEvent timeline (supply period %.0f ms):\n", 1000.0 / supply_hz);
  sim::Table timeline({"t (ms)", "supply cycle", "event", "V_CC (V)"});
  for (const auto& change : result.transitions) {
    const char* event = nullptr;
    if (change.to == mcu::McuState::saving) event = "V_H crossed: snapshot";
    if (change.from == mcu::McuState::restoring) event = "snapshot restored, FFT continues";
    if (change.to == mcu::McuState::off) event = "supply lost (below V_min)";
    if (change.to == mcu::McuState::done) event = "FFT COMPLETE";
    if (event == nullptr) continue;
    timeline.add_row({sim::Table::num(change.time * 1e3, 1),
                      std::to_string(1 + static_cast<int>(change.time * supply_hz)),
                      event, sim::Table::num(change.vcc, 2)});
  }
  timeline.print(std::cout);

  sim::Table summary({"metric", "value"});
  summary.add_row({"V_H (Eq 4)", sim::Table::num(v_h, 2) + " V"});
  summary.add_row({"V_R", sim::Table::num(v_r, 2) + " V"});
  summary.add_row({"snapshots", std::to_string(result.mcu.saves_completed)});
  summary.add_row({"restores", std::to_string(result.mcu.restores)});
  summary.add_row({"supply outages", std::to_string(result.mcu.brownouts)});
  summary.add_row({"completion time", sim::Table::num(result.mcu.completion_time * 1e3, 1) + " ms"});
  summary.add_row({"digest matches uninterrupted run",
                   system.program().result_digest() == golden_digest_value ? "yes" : "NO"});
  std::printf("\n");
  summary.print(std::cout);

  const int completion_cycle =
      1 + static_cast<int>(result.mcu.completion_time * supply_hz);

  std::printf("\nShape checks vs the paper:\n");
  check(result.mcu.completed, "the FFT completes despite the intermittent supply");
  check(system.program().result_digest() == golden_digest_value,
        "result is bit-exact vs an uninterrupted run");
  check(result.mcu.saves_completed >= 1 && result.mcu.restores >= 1,
        "at least one hibernate/restore round trip (V_H then V_R crossings)");
  check(result.mcu.saves_completed <= result.mcu.brownouts + 1,
        "a single snapshot per supply failure (no redundant snapshots)");
  std::printf("  [INFO] FFT completes during supply cycle %d (paper: 3rd cycle)\n",
              completion_cycle);
  check(completion_cycle >= 2 && completion_cycle <= 4,
        "completion lands a few supply cycles in, as in Fig 7");

  std::printf("\n%s\n", g_failures == 0 ? "ALL SHAPE CHECKS PASSED"
                                        : "SOME SHAPE CHECKS FAILED");
  return g_failures == 0 ? 0 : 1;
}
