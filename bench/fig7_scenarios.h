// Shared Fig 7 scenario specs for the bench programs.
//
// fig7_hibernus_fft --macro gates the harvesting-gap speedup on the same
// scenario BM_MacroPair/Fig7Gapped_* records in BENCH_7.json
// (bench/perf_micro.cpp); one definition keeps the gate and the recorded
// trajectory comparable by construction.
#pragma once

#include <cmath>

#include "edc/checkpoint/interrupt_policy.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/grid.h"
#include "edc/trace/waveform.h"

namespace fig7 {

/// The Fig 7 hibernus design point: 47 uF node, 3 kOhm board bleed, FFT
/// 2^11, Eq 4 margin sized for the bleed share (DESIGN.md §4).
inline edc::spec::SystemSpec base_spec() {
  edc::spec::SystemSpec s;
  s.storage.capacitance = 47e-6;
  s.storage.bleed = 3000.0;
  s.workload.kind = "fft-large";
  s.workload.seed = 7;
  edc::checkpoint::InterruptPolicy::Config config;
  config.margin = 2.2;
  config.restore_headroom = 0.35;
  s.policy = edc::spec::Hibernus{config};
  return s;
}

/// The system across harvesting gaps: the 6 Hz sine arriving in 0.5 s
/// bursts every 10 s with the paper's decay-to-zero intervals in between
/// (save -> sleep -> brown-out -> dead node), surveyed over 20 s. The
/// quiescent engine's sleep/off/dead spans collapse the gaps to O(1) and
/// the trace's quiet-segment index claims the sub-conduction arcs inside
/// each burst. Unprobed, like a sweep at scale would run it (probe
/// lock-step has its own differential coverage in tests/macro_step_test).
inline edc::spec::SystemSpec gapped_spec() {
  const auto wave = edc::trace::Waveform::sample(
      [](edc::Seconds t) {
        const double cycle = t - std::floor(t / 10.0) * 10.0;
        return cycle < 0.5 ? 3.3 * std::sin(2.0 * M_PI * 6.0 * t) : 0.0;
      },
      0.0, 20.0, 400001);
  edc::spec::SystemSpec s = base_spec();
  s.source = edc::spec::VoltageTraceSource{wave, 50.0, "fig7-gapped"};
  s.sim.t_end = 20.0;
  s.sim.stop_on_completion = false;  // survey the whole gap structure
  return s;
}

/// The charge-ramp survey: the same design point fed 0.5 s *DC* bursts
/// every 10 s (a bench supply gated on/off — SquareVoltageSource's exact
/// phase arithmetic certifies each burst as one constant window). Every
/// regime is then analytic: the burst's charging ramp jumps to the
/// power-on / V_R rising crossing (circuit::AffineSolution), the parked
/// equilibrium rides to the burst's end, and the gap decays as in
/// gapped_spec — only boot/active/save/restore steps run finely. This is
/// the scenario class exact charge certificates exist for, and the pair
/// BM_MacroPair/Fig7ChargeRamp_* records in BENCH_7.json.
inline edc::spec::SystemSpec charge_ramp_spec() {
  edc::spec::SystemSpec s = base_spec();
  s.source = edc::spec::SquareSource{3.3, 0.1, 0.05, 0.0, 50.0};
  s.sim.t_end = 20.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// The batched-sweep survey: the Fig 7 design point swept over 16 node
/// capacitances on the live 6 Hz sine — one batch group (every point
/// shares the source and dt lattice), all fine-stepped (no macro spans),
/// which is exactly the regime the SoA batch kernel exists for: the sine
/// is evaluated once per substep and broadcast across all 16 lanes
/// instead of 16 times. The survey resolves the charging ODE on an
/// 8-substep lattice (capacitance surveys care about the charge
/// trajectory, and a finer node lattice is where sweeps actually spend
/// their time) — that is also the node-dominated regime the kernel
/// targets; at the figure's coarser 4-substep lattice the per-lane MCU
/// and policy machinery (identical in both paths by the bit-identity
/// contract) caps the ratio near 1.9x. fig7_hibernus_fft --batch gates
/// the scalar/batch speedup on this grid and BM_BatchPair/Fig7Survey_*
/// records the same pair in BENCH_7.json. The workload is fft-small so
/// per-lane MCU work does not drown the node/source share being
/// measured.
inline edc::sweep::Grid batch_survey_grid() {
  edc::spec::SystemSpec s = base_spec();
  s.source = edc::spec::SineSource{3.3, 6.0};
  s.workload.kind = "fft-small";
  s.sim.t_end = 0.25;
  s.sim.node_substeps = 8;
  s.sim.stop_on_completion = false;  // every lane rides the full window
  edc::sweep::Grid grid(std::move(s));
  grid.capacitance_axis({4.7e-6, 6.8e-6, 10e-6, 15e-6, 22e-6, 33e-6, 47e-6,
                         68e-6, 100e-6, 150e-6, 220e-6, 330e-6, 470e-6,
                         680e-6, 1000e-6, 1500e-6});
  return grid;
}

}  // namespace fig7
