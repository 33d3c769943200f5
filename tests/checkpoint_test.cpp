// Tests for the checkpoint policies and the paper's Eq 4 / Eq 5 math.
#include <cmath>

#include <gtest/gtest.h>

#include "edc/checkpoint/hibernus_pp.h"
#include "edc/checkpoint/interrupt_policy.h"
#include "edc/checkpoint/mementos.h"
#include "edc/checkpoint/null_policy.h"
#include "edc/checkpoint/thresholds.h"
#include "edc/core/system.h"
#include "edc/workloads/crc32.h"
#include "edc/workloads/fft.h"

namespace edc::checkpoint {
namespace {

// ------------------------------------------------------------- Eq 4 --------

TEST(Eq4, ThresholdInvertsDecayEnergy) {
  const Farads c = 10e-6;
  const Volts v_min = 1.8;
  for (Joules e : {1e-6, 5e-6, 20e-6}) {
    const Volts v_h = hibernate_threshold(e, c, v_min);
    EXPECT_NEAR(decay_energy(v_h, v_min, c), e, 1e-12);
    EXPECT_TRUE(save_feasible(e * 0.999, v_h, v_min, c));
    EXPECT_FALSE(save_feasible(e * 1.01, v_h, v_min, c));
  }
}

TEST(Eq4, ThresholdDecreasesWithCapacitance) {
  const Volts small_c = hibernate_threshold(5e-6, 4.7e-6, 1.8);
  const Volts large_c = hibernate_threshold(5e-6, 100e-6, 1.8);
  EXPECT_GT(small_c, large_c);
  EXPECT_GT(large_c, 1.8);
}

TEST(Eq4, FixedPointConvergesForImage) {
  mcu::McuPowerModel power;
  const Volts v_h = hibernate_threshold_for_image(power, 2048, 8e6, 10e-6, 1.25);
  // Self-consistency: the energy to save at v_h must fit in the decay
  // budget with the margin.
  const Joules e_s = 1.25 * power.save_energy(2048, 8e6, v_h);
  EXPECT_NEAR(decay_energy(v_h, power.v_min, 10e-6), e_s, 1e-9);
  EXPECT_GT(v_h, power.v_min);
  EXPECT_LT(v_h, 4.0);
}

// ------------------------------------------------------------- Eq 5 --------

TEST(Eq5, CrossoverFormula) {
  EXPECT_NEAR(crossover_frequency(3e-3, 2e-3, 11e-6, 1e-6), 100.0, 1e-9);
  EXPECT_THROW((void)crossover_frequency(2e-3, 3e-3, 11e-6, 1e-6), std::invalid_argument);
  EXPECT_THROW((void)crossover_frequency(3e-3, 2e-3, 1e-6, 11e-6), std::invalid_argument);
}

TEST(Eq5, CrossoverForTypicalImagesIsTensToHundredsOfHz) {
  mcu::McuPowerModel power;
  const Hertz f = crossover_frequency_for_image(power, 2048, 8e6, 3.0);
  EXPECT_GT(f, 5.0);
  EXPECT_LT(f, 2000.0);
}

TEST(Eq5, CrossoverDropsForLargerImages) {
  // Bigger RAM images make hibernus snapshots dearer, so QuickRecall wins
  // from a lower interruption frequency onward.
  mcu::McuPowerModel power;
  EXPECT_GT(crossover_frequency_for_image(power, 512, 8e6, 3.0),
            crossover_frequency_for_image(power, 8192, 8e6, 3.0));
}

// -------------------------------------------------- InterruptPolicy --------

TEST(Hibernus, ThresholdsComputedAtAttach) {
  core::SystemBuilder builder;
  auto system = builder.sine_source(3.3, 2.0)
                    .capacitance(22e-6)
                    .workload("fft-small")
                    .policy_hibernus()
                    .build();
  const auto& policy = dynamic_cast<const InterruptPolicy&>(system.policy());
  EXPECT_GT(policy.hibernate_threshold(), system.mcu().power().v_min);
  EXPECT_GT(policy.restore_threshold(), policy.hibernate_threshold());
}

TEST(Hibernus, CompletesAcrossOutagesWithOneSavePerOutage) {
  core::SystemBuilder builder;
  auto system = builder
                    .voltage_source(std::make_unique<trace::SquareVoltageSource>(
                        3.3, 10.0, 0.3, 0.0, 50.0))
                    .capacitance(22e-6)
                    .bleed(10000.0)
                    .program(std::make_unique<workloads::FftProgram>(12, 3))
                    .policy_hibernus()
                    .build();
  const auto result = system.run(5.0);
  ASSERT_TRUE(result.mcu.completed);
  EXPECT_GT(result.mcu.brownouts, 1u);  // the supply really was intermittent
  // Reactive checkpointing: at most one committed save per outage (plus the
  // occasional save on the final dip).
  EXPECT_LE(result.mcu.saves_completed, result.mcu.brownouts + 1);
  EXPECT_GE(result.mcu.restores, 1u);
  workloads::FftProgram golden(12, 3);
  EXPECT_EQ(system.program().result_digest(), workloads::golden_digest(golden));
}

TEST(Hibernus, DirectResumeWhenSupplyDipsWithoutBrownout) {
  // A shallow dip crosses V_H (snapshot) but recovers above V_R before
  // v_min: the policy must resume from RAM without a restore.
  core::SystemBuilder builder;
  checkpoint::InterruptPolicy::Config config;
  config.v_hibernate = 2.4;  // designer-chosen threshold well above v_min
  config.v_restore = 2.8;
  // Sine dipping to ~2.1 V: rectified minimum 1.85 V stays above v_min, so
  // the node never browns out while the MCU sleeps through the trough.
  auto system = builder
                    .voltage_source(std::make_unique<trace::SineVoltageSource>(
                        0.70, 4.0, 2.80, 20.0))
                    .capacitance(10e-6)
                    .program(std::make_unique<workloads::Crc32Program>(256 * 1024, 5))
                    .policy_hibernus(config)
                    .build();
  const auto result = system.run(4.0);
  ASSERT_TRUE(result.mcu.completed);
  EXPECT_EQ(result.mcu.brownouts, 0u);
  EXPECT_GT(result.mcu.saves_completed, 0u);   // it did hibernate
  EXPECT_GT(result.mcu.direct_resumes, 0u);    // and resumed from RAM
  EXPECT_EQ(result.mcu.restores, 0u);          // never paid a restore
}

TEST(QuickRecall, SnapshotsAreRegisterSized) {
  core::SystemBuilder builder;
  auto system = builder.sine_source(3.3, 2.0)
                    .capacitance(22e-6)
                    .workload("fft-small")
                    .policy_quickrecall()
                    .build();
  EXPECT_EQ(system.mcu().memory_mode(), mcu::MemoryMode::unified_fram);
  EXPECT_EQ(system.mcu().snapshot_image_bytes(),
            system.mcu().power().register_file_bytes);
}

TEST(QuickRecall, LowerHibernateThresholdThanHibernus) {
  // Registers-only snapshots need less decay energy, so V_H sits lower.
  core::SystemBuilder b1, b2;
  auto hib = b1.sine_source(3.3, 2.0).capacitance(22e-6).workload("fft").policy_hibernus().build();
  auto qr = b2.sine_source(3.3, 2.0).capacitance(22e-6).workload("fft").policy_quickrecall().build();
  const auto& hib_policy = dynamic_cast<const InterruptPolicy&>(hib.policy());
  const auto& qr_policy = dynamic_cast<const InterruptPolicy&>(qr.policy());
  EXPECT_LT(qr_policy.hibernate_threshold(), hib_policy.hibernate_threshold());
}

// ------------------------------------------------------- Hibernus++ --------

TEST(HibernusPP, CalibratesOnFirstBoot) {
  core::SystemBuilder builder;
  auto system = builder
                    .voltage_source(std::make_unique<trace::SquareVoltageSource>(
                        3.3, 20.0, 0.5, 0.0, 50.0))
                    .capacitance(22e-6)
                    .workload("fft-small", 3)
                    .policy_hibernus_pp()
                    .build();
  const auto result = system.run(5.0);
  ASSERT_TRUE(result.mcu.completed);
  const auto& policy = dynamic_cast<const HibernusPlusPlusPolicy&>(system.policy());
  EXPECT_TRUE(policy.calibrated());
  EXPECT_GE(policy.calibration_count(), 1);
  // Calibration overhead was paid.
  EXPECT_GE(result.mcu.poll_cycles, 40000.0);
}

TEST(HibernusPP, SurvivesStorageUnknownAtDesignTime) {
  // hibernus characterised for 100 uF but deployed on 4.7 uF fails to save
  // in time (torn snapshots, no forward progress across outages);
  // hibernus++ measures the real capacitance and completes.
  const Farads real_c = 4.7e-6;
  auto square = [] {
    return std::make_unique<trace::SquareVoltageSource>(3.3, 20.0, 0.5, 0.0, 50.0);
  };

  core::SystemBuilder b1;
  checkpoint::InterruptPolicy::Config wrong;
  wrong.capacitance = 100e-6;  // design-time characterisation of the wrong board
  auto hib = b1.voltage_source(square())
                 .capacitance(real_c)
                 .workload("fft", 3)
                 .policy_hibernus(wrong)
                 .build();
  const auto hib_result = hib.run(3.0);

  core::SystemBuilder b2;
  auto hpp = b2.voltage_source(square())
                 .capacitance(real_c)
                 .workload("fft", 3)
                 .policy_hibernus_pp()
                 .build();
  const auto hpp_result = hpp.run(3.0);

  EXPECT_FALSE(hib_result.mcu.completed);
  EXPECT_GT(hib_result.mcu.brownouts, 0u);
  EXPECT_GT(hpp.mcu().nvm().commits() + hpp_result.mcu.saves_completed, 0u);
  EXPECT_TRUE(hpp_result.mcu.completed);
}

// --------------------------------------------------------- Mementos --------

TEST(Mementos, SavesOnlyBelowThreshold) {
  core::SystemBuilder builder;
  MementosPolicy::Config config;
  config.v_threshold = 2.4;
  auto system = builder
                    .voltage_source(std::make_unique<trace::SquareVoltageSource>(
                        3.3, 10.0, 0.5, 0.0, 50.0))
                    .capacitance(47e-6)
                    .bleed(3000.0)
                    .program(std::make_unique<workloads::Crc32Program>(64 * 1024, 3))
                    .policy_mementos(config)
                    .build();
  const auto result = system.run(5.0);
  ASSERT_TRUE(result.mcu.completed);
  EXPECT_GT(result.mcu.saves_completed, 0u);
  EXPECT_GT(result.mcu.poll_cycles, 0.0);
}

TEST(Mementos, RedundantSnapshotsExceedHibernus) {
  // The paper's downside #1: polling checkpoints save repeatedly during a
  // decay, where hibernus saves exactly once.
  auto square = [] {
    return std::make_unique<trace::SquareVoltageSource>(3.3, 10.0, 0.5, 0.0, 50.0);
  };
  core::SystemBuilder b1, b2;
  auto mem = b1.voltage_source(square())
                 .capacitance(47e-6)
                 .bleed(3000.0)
                 .program(std::make_unique<workloads::Crc32Program>(64 * 1024, 3))
                 .policy_mementos()
                 .build();
  checkpoint::InterruptPolicy::Config hib_config;
  hib_config.margin = 2.2;  // cover the bleed share during the save
  auto hib = b2.voltage_source(square())
                 .capacitance(47e-6)
                 .bleed(3000.0)
                 .program(std::make_unique<workloads::Crc32Program>(64 * 1024, 3))
                 .policy_hibernus(hib_config)
                 .build();
  const auto mem_result = mem.run(5.0);
  const auto hib_result = hib.run(5.0);
  ASSERT_TRUE(mem_result.mcu.completed);
  ASSERT_TRUE(hib_result.mcu.completed);
  EXPECT_GT(mem_result.mcu.saves_completed, hib_result.mcu.saves_completed);
}

TEST(Mementos, TimerModeSavesPeriodically) {
  core::SystemBuilder builder;
  MementosPolicy::Config config;
  config.mode = MementosPolicy::Mode::timer;
  config.timer_interval = 2e-3;
  auto system = builder.dc_source(3.3)  // steady supply: no outages at all
                    .capacitance(47e-6)
                    .workload("crc", 3)
                    .policy_mementos(config)
                    .build();
  const auto result = system.run(2.0);
  ASSERT_TRUE(result.mcu.completed);
  // Unconditional periodic saves happen even on a steady supply.
  EXPECT_GT(result.mcu.saves_completed, 3u);
}

TEST(Mementos, FunctionModeSavesLessOftenThanLoopMode) {
  auto square = [] {
    return std::make_unique<trace::SquareVoltageSource>(3.3, 10.0, 0.5, 0.0, 50.0);
  };
  core::SystemBuilder b1, b2;
  MementosPolicy::Config loop_cfg;
  loop_cfg.mode = MementosPolicy::Mode::loop;
  MementosPolicy::Config fn_cfg;
  fn_cfg.mode = MementosPolicy::Mode::function;
  auto loop_sys = b1.voltage_source(square()).capacitance(47e-6).workload("crc", 3)
                      .policy_mementos(loop_cfg).build();
  auto fn_sys = b2.voltage_source(square()).capacitance(47e-6).workload("crc", 3)
                    .policy_mementos(fn_cfg).build();
  const auto loop_result = loop_sys.run(5.0);
  const auto fn_result = fn_sys.run(5.0);
  ASSERT_TRUE(loop_result.mcu.completed);
  ASSERT_TRUE(fn_result.mcu.completed);
  // Fewer candidates => fewer polls (and usually fewer snapshots).
  EXPECT_LT(fn_result.mcu.poll_cycles, loop_result.mcu.poll_cycles);
}

// ------------------------------------------------------------- Null --------

TEST(NullPolicy, RestartsFromScratchEveryOutage) {
  // Workload bigger than one on-period: never completes without
  // checkpointing (forward progress impossible).
  core::SystemBuilder builder;
  auto system = builder
                    .voltage_source(std::make_unique<trace::SquareVoltageSource>(
                        3.3, 20.0, 0.5, 0.0, 50.0))
                    .capacitance(4.7e-6)
                    .bleed(2000.0)
                    .workload("fft", 3)  // ~42 ms of compute vs 25 ms windows
                    .policy_none()
                    .build();
  const auto result = system.run(3.0);
  EXPECT_FALSE(result.mcu.completed);
  EXPECT_GT(result.mcu.brownouts, 10u);
  EXPECT_GT(result.mcu.reexecuted_cycles, 0.0);
}

TEST(NullPolicy, CompletesWhenWorkloadFitsOneWindow) {
  core::SystemBuilder builder;
  auto system = builder
                    .voltage_source(std::make_unique<trace::SquareVoltageSource>(
                        3.3, 2.0, 0.5, 0.0, 50.0))
                    .capacitance(22e-6)
                    .workload("fft-small", 3)  // ~8.5 ms vs 250 ms window
                    .policy_none()
                    .build();
  const auto result = system.run(2.0);
  EXPECT_TRUE(result.mcu.completed);
  EXPECT_EQ(result.mcu.saves_completed, 0u);
}

}  // namespace
}  // namespace edc::checkpoint
