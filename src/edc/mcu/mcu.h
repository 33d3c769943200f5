// The transiently-powered MCU model.
//
// Mcu is a circuit::Load whose draw depends on its execution state, and a
// small state machine driven by the simulation loop:
//
//   off -> boot -> { active <-> saving -> sleep -> (restore|resume) } -> done
//
// A checkpoint policy (PolicyHooks) owns all *decisions* — when to save,
// when to restore, what thresholds to watch — while Mcu owns *mechanics*:
// cycle-accurate program execution (with partial-tick carry), snapshot
// timing/energy, comparators, brown-out semantics, and metrics.
//
// Saving captures the program's RAM image at the instant the save starts
// (the program is halted during the copy, as on the real devices). If the
// supply browns out mid-save the write is torn and the previous committed
// snapshot stays valid (see NvmStore). In unified-FRAM mode (QuickRecall)
// only the register file is copied, but execution draws FRAM-level power.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "edc/circuit/comparator.h"
#include "edc/circuit/supply_driver.h"
#include "edc/common/check.h"
#include "edc/common/units.h"
#include "edc/mcu/hooks.h"
#include "edc/mcu/nvm.h"
#include "edc/mcu/power_model.h"
#include "edc/workloads/program.h"

namespace edc::mcu {

enum class McuState : std::uint8_t {
  off,        ///< below v_min (or never powered)
  boot,       ///< power-on reset sequence running
  active,     ///< executing the program
  saving,     ///< copying a snapshot to NVM
  restoring,  ///< copying a snapshot back from NVM
  sleep,      ///< LPM after hibernation (RAM retained while powered)
  wait,       ///< post-boot deep wait (e.g. for the restore threshold)
  done,       ///< workload complete
};

[[nodiscard]] const char* to_string(McuState state) noexcept;

struct McuMetrics {
  // Wall-clock split (s).
  Seconds time_off = 0, time_boot = 0, time_active = 0, time_saving = 0,
          time_restoring = 0, time_sleep = 0, time_wait = 0, time_done = 0;

  // Cycle accounting.
  double cycles_active = 0;        ///< all cycles spent in active state
  double forward_cycles = 0;       ///< cycles of ticks that advanced max progress
  double reexecuted_cycles = 0;    ///< cycles of ticks re-run after rollback
  double poll_cycles = 0;          ///< policy overhead: ADC polls, calibration

  // Event counts.
  std::uint64_t boots = 0;
  std::uint64_t brownouts = 0;
  std::uint64_t saves_started = 0;
  std::uint64_t saves_completed = 0;
  std::uint64_t restores = 0;
  std::uint64_t direct_resumes = 0;  ///< wake from sleep with RAM intact
  std::uint64_t peripheral_reinits = 0;  ///< peripheral re-config after outages

  // Energy attribution (J), integrated as I(state)*V*dt.
  Joules energy_active = 0, energy_save = 0, energy_restore = 0,
         energy_sleep = 0, energy_other = 0;

  // Workload completion.
  bool completed = false;
  Seconds completion_time = 0;

  [[nodiscard]] Joules energy_total() const {
    return energy_active + energy_save + energy_restore + energy_sleep + energy_other;
  }
  [[nodiscard]] Seconds time_on() const {
    return time_boot + time_active + time_saving + time_restoring + time_sleep +
           time_wait + time_done;
  }
};

struct McuParams {
  McuPowerModel power;
  Hertz initial_frequency = 8e6;
  MemoryMode memory_mode = MemoryMode::sram_execution;

  // ---- peripheral state (the paper's §IV open problem) -----------------
  // Embedded systems are more than a core: ADCs, radios, timers and sensor
  // front-ends hold volatile configuration (SFRs, calibration words, radio
  // register maps) that a power cycle destroys. A checkpoint policy either
  // includes this file in every snapshot (bigger image, higher Eq 4 V_H) or
  // re-initialises the peripherals after every restore (a fixed cycle cost,
  // e.g. reprogramming a radio over SPI).
  std::size_t peripheral_file_bytes = 64;
  Cycles peripheral_reinit_cycles = 12000;
};

class Mcu final : public circuit::Load {
 public:
  /// `program` and `policy` must outlive the Mcu.
  Mcu(const McuParams& params, workloads::Program& program, PolicyHooks& policy);

  // ---- circuit::Load -------------------------------------------------
  [[nodiscard]] Amps current_draw(Volts v_node, Seconds t) const override;

  // ---- simulation-facing ----------------------------------------------
  /// Processes the supply transition of one step: power-on, comparator
  /// events, brown-out. Call before advance().
  void supply_update(Volts v_prev, Seconds t_prev, Volts v_now, Seconds t_now);

  /// Advances the state machine by dt at node voltage v_now.
  void advance(Seconds t, Seconds dt, Volts v_now);

  /// Books a span the simulation loop skipped while the MCU sat in a
  /// quiescent state (off / sleep / wait / done — the quiescent engine's
  /// dead-node fast path and analytic decay spans): the time counts toward
  /// the state's wall-clock metric and `energy` — what the state's constant
  /// draw took from the node over the span (0 for a dead node at 0 V; the
  /// analytic integral of I_state * V for a decay span) — toward its energy
  /// attribution, mirroring account_time()'s booking.
  void note_quiescent_span(Seconds dt, Joules energy = 0.0) noexcept {
    switch (state_) {
      case McuState::off:
        metrics_.time_off += dt;
        metrics_.energy_other += energy;
        break;
      case McuState::sleep:
        metrics_.time_sleep += dt;
        metrics_.energy_sleep += energy;
        break;
      case McuState::wait:
        metrics_.time_wait += dt;
        metrics_.energy_other += energy;
        break;
      case McuState::done:
        metrics_.time_done += dt;
        metrics_.energy_sleep += energy;
        break;
      default:
        EDC_ASSERT(false);  // only quiescent states may be span-booked
    }
  }

  /// Span planning for the quiescent engine: the earliest instant anything
  /// discrete could happen while the supply follows `trajectory` with the
  /// true voltage within `pad` of it (circuit::first_fire's rule, +infinity
  /// when nothing can fire). While the MCU is off the only watcher is the
  /// level-triggered power-on release at v_on (supply_update boots when
  /// the end-of-step voltage reaches it; the comparator bank is only reset
  /// on that step). While it is powered they are the armed comparators
  /// (ComparatorBank::plan_crossing) and the level-triggered v_min
  /// brown-out.
  [[nodiscard]] circuit::Crossing plan_crossing(
      const circuit::AffineSolution& trajectory, Volts pad, Seconds t_max) const;

  /// Whether the attached policy certifies the *current* state as woken
  /// only by comparators (PolicyHooks::wakes_only_by_comparator) — the
  /// license plan_crossing()'s result needs to be exhaustive.
  [[nodiscard]] bool wake_is_comparator_driven() const {
    return policy_->wakes_only_by_comparator(state_);
  }

  // ---- policy/governor command API -------------------------------------
  /// Starts a snapshot of the current program state. No-op if not active.
  void request_save(Seconds t);

  /// Starts restoring the committed snapshot. Requires has_valid_snapshot().
  void request_restore(Seconds t);

  /// Resets the program and starts executing from scratch.
  void start_program_fresh(Seconds t);

  /// Continues execution without a restore (RAM still valid).
  void resume_execution(Seconds t);

  void enter_sleep(Seconds t);
  void enter_wait(Seconds t);
  void mark_done(Seconds t);

  void set_frequency(Hertz f);
  [[nodiscard]] Hertz frequency() const noexcept { return frequency_; }

  void set_memory_mode(MemoryMode mode) noexcept { memory_mode_ = mode; }
  [[nodiscard]] MemoryMode memory_mode() const noexcept { return memory_mode_; }

  /// Whether snapshots carry the peripheral configuration file. When false
  /// (the historical default of the early transient systems), every restore
  /// after an outage pays peripheral_reinit_cycles instead.
  void set_peripheral_snapshotting(bool include) noexcept {
    snapshot_peripherals_ = include;
  }
  [[nodiscard]] bool peripheral_snapshotting() const noexcept {
    return snapshot_peripherals_;
  }

  /// Registers (or reconfigures) a supply comparator; returns its index.
  std::size_t add_comparator(const std::string& name, Volts threshold,
                             Volts hysteresis = 0.02);
  void set_comparator_threshold(std::size_t index, Volts threshold);

  /// Last node voltage seen by supply_update (free to read — hardware
  /// comparators make it observable); use poll_vcc() to model an ADC read.
  [[nodiscard]] Volts vcc() const noexcept { return vcc_; }

  /// ADC conversion: stalls the program by vcc_poll_cycles and returns Vcc.
  Volts poll_vcc();

  /// Stalls the program by `cycles` of policy overhead (e.g. Hibernus++'s
  /// online calibration routine). Consumed before the next program tick.
  void inject_busy(double cycles);

  [[nodiscard]] NvmStore& nvm() noexcept { return nvm_; }
  [[nodiscard]] const NvmStore& nvm() const noexcept { return nvm_; }

  [[nodiscard]] workloads::Program& program() noexcept { return *program_; }
  [[nodiscard]] const workloads::Program& program() const noexcept { return *program_; }

  [[nodiscard]] McuState state() const noexcept { return state_; }
  [[nodiscard]] bool ram_valid() const noexcept { return ram_valid_; }
  [[nodiscard]] const McuPowerModel& power() const noexcept { return params_.power; }
  [[nodiscard]] const McuMetrics& metrics() const noexcept { return metrics_; }

  /// Bytes a snapshot must copy in the current memory mode.
  [[nodiscard]] std::size_t snapshot_image_bytes() const;

  /// Energy one snapshot costs right now (Eq 4's E_S at the current f/V).
  [[nodiscard]] Joules snapshot_energy_now() const;

 private:
  void dispatch_power_on(Seconds t);
  void dispatch_power_loss(Seconds t);
  void finish_boot(Seconds t);
  void finish_save(Seconds t);
  void finish_restore(Seconds t);
  void advance_active(Seconds t, Seconds& remaining, Volts v);
  void account_time(McuState state, Seconds dt, Volts v);

  McuParams params_;
  workloads::Program* program_;
  PolicyHooks* policy_;

  McuState state_ = McuState::off;
  Hertz frequency_;
  MemoryMode memory_mode_;
  Volts vcc_ = 0.0;
  bool ram_valid_ = false;
  bool snapshot_peripherals_ = false;
  bool peripherals_configured_ = false;

  double carry_cycles_ = 0.0;     ///< cycles already spent inside the next tick
  double stall_cycles_ = 0.0;     ///< pending overhead (ADC polls etc.)
  double boot_cycles_left_ = 0.0;
  double save_cycles_left_ = 0.0;
  double restore_cycles_left_ = 0.0;

  circuit::ComparatorBank comparators_;
  NvmStore nvm_;
  McuMetrics metrics_;
  std::uint64_t max_tick_reached_ = 0;
};

}  // namespace edc::mcu
