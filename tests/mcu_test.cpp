// Unit tests for the MCU model (edc/mcu): power model, NVM commit
// semantics, boot/brown-out behaviour, snapshot mechanics and accounting.
#include <gtest/gtest.h>

#include "edc/checkpoint/null_policy.h"
#include "edc/checkpoint/policy_base.h"
#include "edc/mcu/mcu.h"
#include "edc/mcu/nvm.h"
#include "edc/mcu/power_model.h"
#include "edc/workloads/program.h"

namespace edc::mcu {
namespace {

// ----------------------------------------------------------- PowerModel ----

TEST(PowerModel, ActiveCurrentMonotoneInFrequency) {
  McuPowerModel power;
  EXPECT_LT(power.active_current(1e6, MemoryMode::sram_execution),
            power.active_current(8e6, MemoryMode::sram_execution));
}

TEST(PowerModel, FramExecutionCostsMoreThanSram) {
  McuPowerModel power;
  for (Hertz f : {1e6, 8e6, 24e6}) {
    EXPECT_GT(power.active_current(f, MemoryMode::unified_fram),
              power.active_current(f, MemoryMode::sram_execution));
    EXPECT_GT(power.active_current(f, MemoryMode::nv_processor),
              power.active_current(f, MemoryMode::sram_execution));
    EXPECT_LT(power.active_current(f, MemoryMode::nv_processor),
              power.active_current(f, MemoryMode::unified_fram));
  }
}

TEST(PowerModel, SaveEnergyScalesWithImage) {
  McuPowerModel power;
  const Joules small = power.save_energy(128, 8e6, 3.0);
  const Joules large = power.save_energy(4096, 8e6, 3.0);
  EXPECT_GT(large, 2.0 * small);
}

TEST(PowerModel, SaveCurrentExceedsActive) {
  McuPowerModel power;
  EXPECT_GT(power.save_current(8e6),
            power.active_current(8e6, MemoryMode::sram_execution));
}

// ----------------------------------------------------------------- NVM -----

TEST(Nvm, CommitMakesSnapshotValid) {
  NvmStore nvm;
  EXPECT_FALSE(nvm.has_valid_snapshot());
  nvm.begin_write(Snapshot{{std::byte{1}}, 0.0, 0});
  EXPECT_FALSE(nvm.has_valid_snapshot());  // not yet committed
  nvm.commit();
  EXPECT_TRUE(nvm.has_valid_snapshot());
  EXPECT_EQ(nvm.commits(), 1u);
}

TEST(Nvm, AbandonKeepsPreviousSnapshot) {
  NvmStore nvm;
  nvm.begin_write(Snapshot{{std::byte{1}}, 0.0, 0});
  nvm.commit();
  nvm.begin_write(Snapshot{{std::byte{2}}, 0.0, 0});
  nvm.abandon_write();  // torn
  EXPECT_TRUE(nvm.has_valid_snapshot());
  EXPECT_EQ(nvm.snapshot().program_state[0], std::byte{1});
  EXPECT_EQ(nvm.torn_writes(), 1u);
}

TEST(Nvm, OverlappingWritesCountTorn) {
  NvmStore nvm;
  nvm.begin_write(Snapshot{{std::byte{1}}, 0.0, 0});
  nvm.begin_write(Snapshot{{std::byte{2}}, 0.0, 0});  // replaces in-progress
  EXPECT_EQ(nvm.torn_writes(), 1u);
  nvm.commit();
  EXPECT_EQ(nvm.snapshot().program_state[0], std::byte{2});
}

TEST(Nvm, SnapshotWithoutCommitThrows) {
  NvmStore nvm;
  EXPECT_THROW((void)nvm.snapshot(), std::invalid_argument);
  EXPECT_THROW(nvm.commit(), std::invalid_argument);
}

// ----------------------------------------------------------------- Mcu -----

struct McuFixture : ::testing::Test {
  McuFixture()
      : program(workloads::make_program("crc", 1)), mcu(McuParams{}, *program, policy) {}

  void power_to(Volts v_from, Volts v_to, Seconds t0, Seconds t1) {
    mcu.supply_update(v_from, t0, v_to, t1);
  }

  std::unique_ptr<workloads::Program> program;
  checkpoint::NullPolicy policy;
  Mcu mcu;
};

TEST_F(McuFixture, StartsOff) {
  EXPECT_EQ(mcu.state(), McuState::off);
  EXPECT_FALSE(mcu.ram_valid());
}

TEST_F(McuFixture, BootsWhenSupplyReachesVon) {
  policy.attach(mcu);
  power_to(0.0, 2.5, 0.0, 1e-5);
  EXPECT_EQ(mcu.state(), McuState::boot);
  EXPECT_EQ(mcu.metrics().boots, 1u);
}

TEST_F(McuFixture, RunsProgramOnSteadySupply) {
  policy.attach(mcu);
  power_to(0.0, 3.0, 0.0, 1e-5);
  Seconds t = 0.0;
  while (t < 1.0 && !mcu.metrics().completed) {
    mcu.advance(t, 1e-4, 3.0);
    t += 1e-4;
  }
  EXPECT_TRUE(mcu.metrics().completed);
  EXPECT_EQ(mcu.state(), McuState::done);
  // crc = 256 blocks * 640 cycles = 163840 cycles at 8 MHz ~ 20.5 ms + boot.
  EXPECT_NEAR(mcu.metrics().completion_time, 0.0207, 0.002);
}

TEST_F(McuFixture, BrownOutLosesVolatileState) {
  policy.attach(mcu);
  power_to(0.0, 3.0, 0.0, 1e-5);
  mcu.advance(0.0, 1e-3, 3.0);  // boot + some execution
  EXPECT_EQ(mcu.state(), McuState::active);
  power_to(3.0, 1.0, 1e-3, 2e-3);  // below v_min
  EXPECT_EQ(mcu.state(), McuState::off);
  EXPECT_FALSE(mcu.ram_valid());
  EXPECT_EQ(mcu.metrics().brownouts, 1u);
}

TEST_F(McuFixture, CurrentDrawDependsOnState) {
  const Amps off = mcu.current_draw(3.0, 0.0);
  policy.attach(mcu);
  power_to(0.0, 3.0, 0.0, 1e-5);
  mcu.advance(0.0, 1e-3, 3.0);
  const Amps active = mcu.current_draw(3.0, 0.0);
  EXPECT_GT(active, 100.0 * off);
  EXPECT_NEAR(active, mcu.power().active_current(8e6, MemoryMode::sram_execution),
              1e-9);
}

TEST_F(McuFixture, EnergyAttributionSumsToTotal) {
  policy.attach(mcu);
  power_to(0.0, 3.0, 0.0, 1e-5);
  Seconds t = 0.0;
  while (t < 0.05) {
    mcu.advance(t, 1e-4, 3.0);
    t += 1e-4;
  }
  const auto& m = mcu.metrics();
  EXPECT_GT(m.energy_total(), 0.0);
  EXPECT_NEAR(m.time_on() + m.time_off, 0.05, 1e-6);
}

TEST_F(McuFixture, PollVccCostsCycles) {
  policy.attach(mcu);
  power_to(0.0, 3.0, 0.0, 1e-5);
  mcu.advance(0.0, 1e-3, 3.0);
  const double before = mcu.metrics().poll_cycles;
  EXPECT_DOUBLE_EQ(mcu.poll_vcc(), 3.0);
  EXPECT_GT(mcu.metrics().poll_cycles, before);
}

TEST_F(McuFixture, SetFrequencyValidates) {
  EXPECT_THROW(mcu.set_frequency(0.0), std::invalid_argument);
  mcu.set_frequency(1e6);
  EXPECT_DOUBLE_EQ(mcu.frequency(), 1e6);
}

TEST_F(McuFixture, SnapshotImageBytesByMode) {
  const std::size_t sram = mcu.snapshot_image_bytes();
  EXPECT_EQ(sram, program->ram_footprint() + mcu.power().register_file_bytes);
  mcu.set_memory_mode(MemoryMode::unified_fram);
  EXPECT_EQ(mcu.snapshot_image_bytes(), mcu.power().register_file_bytes);
}

// A policy that saves once at a fixed boundary count, to exercise the save
// path deterministically.
struct SaveOncePolicy final : checkpoint::PolicyBase {
  int boundaries = 0;
  int save_at = 10;
  void on_boot(Mcu& mcu, Seconds t) override { mcu.start_program_fresh(t); }
  void on_boundary(Mcu& mcu, workloads::Boundary, Seconds t) override {
    if (++boundaries == save_at) mcu.request_save(t);
  }
  void on_save_complete(Mcu& mcu, Seconds t) override { mcu.resume_execution(t); }
  [[nodiscard]] std::string name() const override { return "save-once"; }
};

TEST(McuSave, SaveCommitsAndRestoreResumesExactly) {
  auto program = workloads::make_program("fft-small", 3);
  const auto golden = workloads::golden_digest(*program);

  SaveOncePolicy policy;
  Mcu mcu(McuParams{}, *program, policy);
  mcu.supply_update(0.0, 0.0, 3.0, 1e-5);
  Seconds t = 0.0;
  while (t < 0.01 && mcu.nvm().commits() == 0) {
    mcu.advance(t, 1e-4, 3.0);
    t += 1e-4;
  }
  ASSERT_EQ(mcu.nvm().commits(), 1u);
  EXPECT_EQ(mcu.metrics().saves_started, 1u);
  EXPECT_EQ(mcu.metrics().saves_completed, 1u);
  EXPECT_GT(mcu.metrics().time_saving, 0.0);

  // Kill the power, then bring it back: policy restarts fresh (it is not a
  // restoring policy), so instead restore manually and check exactness.
  mcu.supply_update(3.0, t, 0.5, t + 1e-5);
  EXPECT_EQ(mcu.state(), McuState::off);
  mcu.supply_update(0.5, t, 3.0, t + 2e-5);
  // Finish boot.
  mcu.advance(t, 1e-3, 3.0);
  // Force a restore through the public API.
  mcu.enter_wait(t);
  mcu.request_restore(t);
  while (!mcu.metrics().completed && t < 1.0) {
    mcu.advance(t, 1e-4, 3.0);
    t += 1e-4;
  }
  ASSERT_TRUE(mcu.metrics().completed);
  EXPECT_EQ(program->result_digest(), golden);
  EXPECT_EQ(mcu.metrics().restores, 1u);
}

TEST(McuSave, TornSaveKeepsNvmEmpty) {
  auto program = workloads::make_program("fft", 3);  // big image: slow save
  SaveOncePolicy policy;
  policy.save_at = 5;
  Mcu mcu(McuParams{}, *program, policy);
  mcu.supply_update(0.0, 0.0, 3.0, 1e-5);
  Seconds t = 0.0;
  // Run until the save starts.
  while (t < 0.01 && mcu.state() != McuState::saving) {
    mcu.advance(t, 1e-5, 3.0);
    t += 1e-5;
  }
  ASSERT_EQ(mcu.state(), McuState::saving);
  // Brown out mid-save.
  mcu.supply_update(3.0, t, 1.0, t + 1e-5);
  EXPECT_EQ(mcu.state(), McuState::off);
  EXPECT_FALSE(mcu.nvm().has_valid_snapshot());
  EXPECT_EQ(mcu.nvm().torn_writes(), 1u);
  EXPECT_EQ(mcu.metrics().saves_completed, 0u);
}

TEST(McuReexec, ReexecutedCyclesCountedAfterRollback) {
  auto program = workloads::make_program("crc", 2);
  SaveOncePolicy policy;
  policy.save_at = 20;
  Mcu mcu(McuParams{}, *program, policy);
  mcu.supply_update(0.0, 0.0, 3.0, 1e-5);
  Seconds t = 0.0;
  while (mcu.nvm().commits() == 0 && t < 0.1) {
    mcu.advance(t, 1e-4, 3.0);
    t += 1e-4;
  }
  ASSERT_EQ(mcu.nvm().commits(), 1u);
  // Let it run past the snapshot, then kill and restore: the work between
  // snapshot and outage re-executes.
  for (int i = 0; i < 50; ++i) {
    mcu.advance(t, 1e-4, 3.0);
    t += 1e-4;
  }
  mcu.supply_update(3.0, t, 0.0, t + 1e-5);
  mcu.supply_update(0.0, t, 3.0, t + 2e-5);
  mcu.advance(t, 1e-3, 3.0);  // boot
  mcu.enter_wait(t);
  mcu.request_restore(t);
  while (!mcu.metrics().completed && t < 1.0) {
    mcu.advance(t, 1e-4, 3.0);
    t += 1e-4;
  }
  ASSERT_TRUE(mcu.metrics().completed);
  EXPECT_GT(mcu.metrics().reexecuted_cycles, 0.0);
  EXPECT_GT(mcu.metrics().forward_cycles, mcu.metrics().reexecuted_cycles);
}

}  // namespace
}  // namespace edc::mcu
