// Micro-benchmarks (google-benchmark): simulator and kernel throughput.
//
// Not a paper figure — this tracks the harness' own performance so the
// repository's experiments stay cheap to run. CI's perf job runs this with
// --benchmark_format=json and archives the output as BENCH_<pr>.json, so
// the fine-vs-macro pairs below are the repo's recorded perf trajectory
// for the quiescent engine (sim/quiescent_engine.h).
#include <benchmark/benchmark.h>

#include "edc/core/system.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"
#include "edc/trace/power_sources.h"
#include "edc/trace/voltage_sources.h"
#include "edc/workloads/program.h"
#include "fig7_scenarios.h"
#include "fig8_scenarios.h"

using namespace edc;

namespace {

void BM_SupplyNodeStep(benchmark::State& state) {
  trace::SineVoltageSource source(3.3, 5.0, 0.0, 50.0);
  circuit::RectifiedSourceDriver driver(source, circuit::RectifierParams{});
  circuit::SupplyNode node(22e-6, 0.0);
  circuit::ResistiveLoad load(5000.0);
  Seconds t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.step(t, 1e-5, driver, load, 4));
    t += 1e-5;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SupplyNodeStep);

void BM_ProgramTick(benchmark::State& state, const char* kind) {
  auto program = workloads::make_program(kind, 1);
  for (auto _ : state) {
    if (program->done()) program->reset();
    program->run_tick();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_ProgramTick, fft, "fft");
BENCHMARK_CAPTURE(BM_ProgramTick, crc, "crc");
BENCHMARK_CAPTURE(BM_ProgramTick, aes, "aes");
BENCHMARK_CAPTURE(BM_ProgramTick, sort, "sort");
BENCHMARK_CAPTURE(BM_ProgramTick, raytrace, "raytrace");

void BM_SnapshotRoundTrip(benchmark::State& state) {
  auto program = workloads::make_program("fft", 1);
  for (int i = 0; i < 1000; ++i) program->run_tick();
  for (auto _ : state) {
    auto snapshot = program->save_state();
    program->restore_state(snapshot);
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_SnapshotRoundTrip);

void BM_FullIntermittentSimulation(benchmark::State& state) {
  for (auto _ : state) {
    core::SystemBuilder builder;
    auto system = builder
                      .voltage_source(std::make_unique<trace::SquareVoltageSource>(
                          3.3, 10.0, 0.3, 0.0, 50.0))
                      .capacitance(22e-6)
                      .bleed(10000.0)
                      .workload("fft-small", 3)
                      .policy_hibernus()
                      .build();
    benchmark::DoNotOptimize(system.run(0.5));
  }
}
BENCHMARK(BM_FullIntermittentSimulation)->Unit(benchmark::kMillisecond);

// ---- fine vs macro stepping on off-dominated scenarios ---------------------
// Each pair runs the identical spec with macro_stepping toggled; the ratio
// is the macro stepper's end-to-end speedup on that scenario class. Each
// leg also records its step mix as counters (fine_steps, span_steps,
// spans): exact and the same on every host, so tools/bench_gate
// --steps-gate can put ceilings on the macro leg's counts.

void BM_MacroPair(benchmark::State& state, spec::SystemSpec s, bool macro) {
  s.sim.macro_stepping = macro;
  sim::SimResult last;
  for (auto _ : state) {
    auto system = spec::instantiate(s);
    last = system.run();
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["fine_steps"] = static_cast<double>(last.fine_steps);
  state.counters["span_steps"] = static_cast<double>(last.span_steps);
  state.counters["spans"] = static_cast<double>(last.spans);
}

/// A 1%-duty square supply: one 80 ms burst every 8 s, then a bled
/// brown-out tail decaying to a dead node — the Fig 7 decay-to-zero
/// interval stretched to survey-realistic duty cycles (under 1% active
/// time).
spec::SystemSpec brownout_tail_spec() {
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 0.125, 0.01, 0.0, 50.0};
  s.storage.capacitance = 47e-6;
  s.storage.bleed = 10000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = 3;
  s.sim.t_end = 16.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// A WISPCam-style RFID reader field: 0.2 s interrogations every 5 s.
spec::SystemSpec rf_idle_spec() {
  spec::SystemSpec s;
  trace::RfFieldSource::Params rf;
  rf.field_power = 2e-3;
  rf.burst_length = 0.2;
  rf.burst_period = 5.0;
  s.source = spec::RfFieldPower{rf, 11, 10.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 5000.0;
  s.workload.kind = "crc";
  s.workload.seed = 3;
  s.sim.t_end = 10.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// The Fig 7 configuration (6 Hz half-wave sine, hibernus, FFT): off spans
/// are only part of each supply cycle, so this bounds the speedup on
/// moderately intermittent scenarios.
spec::SystemSpec fig7_like_spec() {
  spec::SystemSpec s;
  s.source = spec::SineSource{3.3, 6.0};
  s.storage.capacitance = 47e-6;
  s.storage.bleed = 3000.0;
  s.workload.kind = "fft";
  s.workload.seed = 7;
  checkpoint::InterruptPolicy::Config config;
  config.margin = 2.2;
  config.restore_headroom = 0.35;
  s.policy = spec::Hibernus{config};
  s.sim.t_end = 2.0;
  s.sim.stop_on_completion = false;  // ride the supply for the full window
  return s;
}

BENCHMARK_CAPTURE(BM_MacroPair, BrownoutTail_fine, brownout_tail_spec(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, BrownoutTail_macro, brownout_tail_spec(), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, RfIdle_fine, rf_idle_spec(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, RfIdle_macro, rf_idle_spec(), true)
    ->Unit(benchmark::kMillisecond);
/// The Fig 7 system across harvesting gaps (bench/fig7_scenarios.h — the
/// exact scenario the fig7_hibernus_fft --macro survey gates): the
/// quiescent engine's sleep/off/dead spans collapse the gaps to O(1), so
/// this pair tracks the sleep-speedup headline per push.
spec::SystemSpec fig7_gapped_spec() { return fig7::gapped_spec(); }

/// The Fig 8 governed figure (micro wind turbine, hibernus-PN with the DFS
/// governor — bench/fig8_scenarios.h): sleep spans here are capped by the
/// governor period, so this pair tracks the governed macro path.
spec::SystemSpec fig8_wind_spec() { return fig8::governed_figure_spec(); }

/// The Fig 8 wind survey (bench/fig8_scenarios.h — the exact scenario the
/// fig8_hibernus_pn --macro survey gates): the stochastic quiet-segment
/// index claims the turbine's inter-gust gaps, stalled stretches and
/// sub-conduction arcs, so this pair tracks the stochastic-source hints
/// per push.
spec::SystemSpec fig8_wind_survey_spec() { return fig8::wind_survey_spec(); }

/// The Fig 7 charge-ramp survey (bench/fig7_scenarios.h — the exact
/// scenario the fig7_hibernus_fft --macro survey gates): DC bursts make
/// every charging ramp one analytic exact-certificate span, so this pair
/// tracks the exact (plan_charge_span) certificate path per push.
spec::SystemSpec fig7_charge_ramp_spec() { return fig7::charge_ramp_spec(); }

BENCHMARK_CAPTURE(BM_MacroPair, Fig7Sine_fine, fig7_like_spec(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig7Sine_macro, fig7_like_spec(), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig7Gapped_fine, fig7_gapped_spec(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig7Gapped_macro, fig7_gapped_spec(), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig7ChargeRamp_fine, fig7_charge_ramp_spec(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig7ChargeRamp_macro, fig7_charge_ramp_spec(), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig8Wind_fine, fig8_wind_spec(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig8Wind_macro, fig8_wind_spec(), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig8WindSurvey_fine, fig8_wind_survey_spec(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MacroPair, Fig8WindSurvey_macro, fig8_wind_survey_spec(), true)
    ->Unit(benchmark::kMillisecond);

// ---- scalar vs batched sweep execution on survey grids ---------------------
// Each pair runs the identical grid through sweep::Runner with a single
// worker thread, toggling only RunnerOptions::batch; the scalar/batch
// real-time ratio is therefore the SoA batch kernel's end-to-end speedup
// on that grid class (no thread-pool parallelism in either leg). Rows are
// bit-identical by contract (tests/batch_diff_test.cpp), so the pairs
// measure pure execution strategy. tools/bench_gate --batch-gate asserts
// these ratios in CI.

void BM_BatchPair(benchmark::State& state, sweep::Grid grid, bool batch) {
  sweep::RunnerOptions options;
  options.threads = 1;
  options.batch = batch;
  const sweep::Runner runner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(grid));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(grid.size()));
}

/// The Eq 5 crossover grid (bench/eq5_crossover.cpp) at a shortened
/// horizon: 7 interrupt frequencies x {hibernus, quickrecall}. Each
/// frequency is its own square-wave source, so the batch groups are only
/// two lanes wide — this pair bounds the kernel's gain on group-poor
/// grids (shared source evaluation still halves, SIMD width is 2).
sweep::Grid eq5_grid() {
  edc::checkpoint::InterruptPolicy::Config config;
  config.margin = 3.0;
  config.restore_headroom = 0.15;
  spec::SystemSpec base;
  base.storage.capacitance = 10e-6;
  base.storage.bleed = 1000.0;
  base.workload.kind = "fft";
  base.workload.seed = 5;
  base.sim.t_end = 0.5;
  sweep::Grid grid(std::move(base));
  grid.numeric_axis(
          "f_interrupt (Hz)", {5, 10, 20, 40, 80, 160, 320},
          [](spec::SystemSpec& s, double f) {
            s.source = spec::SquareSource{3.3, f, 0.5, 0.0, 50.0};
          })
      .axis("policy", {{"hibernus",
                        [config](spec::SystemSpec& s) {
                          s.policy = spec::Hibernus{config};
                        }},
                       {"quickrecall", [config](spec::SystemSpec& s) {
                          s.policy = spec::QuickRecall{config};
                        }}});
  return grid;
}

BENCHMARK_CAPTURE(BM_BatchPair, Fig7Survey_scalar, fig7::batch_survey_grid(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchPair, Fig7Survey_batch, fig7::batch_survey_grid(), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchPair, Fig8Wind_scalar, fig8::batch_survey_grid(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchPair, Fig8Wind_batch, fig8::batch_survey_grid(), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchPair, Eq5Grid_scalar, eq5_grid(), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchPair, Eq5Grid_batch, eq5_grid(), true)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
