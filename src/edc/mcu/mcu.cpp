#include "edc/mcu/mcu.h"

#include <algorithm>

#include "edc/common/check.h"

namespace edc::mcu {

namespace {
constexpr Amps kOffLeakage = 0.05e-6;
constexpr Seconds kTimeEps = 1e-15;
}  // namespace

const char* to_string(McuState state) noexcept {
  switch (state) {
    case McuState::off: return "off";
    case McuState::boot: return "boot";
    case McuState::active: return "active";
    case McuState::saving: return "saving";
    case McuState::restoring: return "restoring";
    case McuState::sleep: return "sleep";
    case McuState::wait: return "wait";
    case McuState::done: return "done";
  }
  return "?";
}

Mcu::Mcu(const McuParams& params, workloads::Program& program, PolicyHooks& policy)
    : params_(params),
      program_(&program),
      policy_(&policy),
      frequency_(params.initial_frequency),
      memory_mode_(params.memory_mode) {
  EDC_CHECK(params.initial_frequency > 0.0, "frequency must be positive");
  EDC_CHECK(params.power.v_on >= params.power.v_min,
            "v_on must be at least v_min");
}

Amps Mcu::current_draw(Volts, Seconds) const {
  const McuPowerModel& p = params_.power;
  switch (state_) {
    case McuState::off: return kOffLeakage;
    case McuState::boot: return p.active_current(frequency_, memory_mode_);
    case McuState::active: return p.active_current(frequency_, memory_mode_);
    case McuState::saving: return p.save_current(frequency_);
    case McuState::restoring: return p.restore_current(frequency_);
    case McuState::sleep: return p.i_sleep;
    case McuState::wait: return p.i_deep_wait;
    case McuState::done: return p.i_sleep;
  }
  return 0.0;
}

void Mcu::supply_update(Volts v_prev, Seconds t_prev, Volts v_now, Seconds t_now) {
  vcc_ = v_now;
  if (state_ == McuState::off) {
    if (v_now >= params_.power.v_on) {
      dispatch_power_on(t_now);
      comparators_.reset(v_prev);
      for (const auto& event : comparators_.update(v_prev, t_prev, v_now, t_now)) {
        policy_->on_comparator(*this, event);
      }
    }
    return;
  }
  for (const auto& event : comparators_.update(v_prev, t_prev, v_now, t_now)) {
    if (state_ == McuState::off) break;  // a brown-out handler already ran
    policy_->on_comparator(*this, event);
  }
  if (state_ != McuState::off && v_now < params_.power.v_min) {
    dispatch_power_loss(t_now);
  }
}

void Mcu::dispatch_power_on(Seconds) {
  state_ = McuState::boot;
  boot_cycles_left_ = static_cast<double>(params_.power.boot_cycles);
  ram_valid_ = false;
  carry_cycles_ = 0.0;
  stall_cycles_ = 0.0;
  ++metrics_.boots;
}

void Mcu::dispatch_power_loss(Seconds t) {
  if (state_ == McuState::saving) nvm_.abandon_write();
  state_ = McuState::off;
  ram_valid_ = false;
  peripherals_configured_ = false;  // SFRs and radio registers are volatile
  carry_cycles_ = 0.0;
  stall_cycles_ = 0.0;
  ++metrics_.brownouts;
  policy_->on_power_loss(*this, t);
}

void Mcu::account_time(McuState state, Seconds dt, Volts v) {
  const McuState saved = state_;
  state_ = state;  // current_draw keys off state_
  const Joules energy = current_draw(v, 0.0) * v * dt;
  state_ = saved;
  switch (state) {
    case McuState::off: metrics_.time_off += dt; metrics_.energy_other += energy; break;
    case McuState::boot: metrics_.time_boot += dt; metrics_.energy_other += energy; break;
    case McuState::active: metrics_.time_active += dt; metrics_.energy_active += energy; break;
    case McuState::saving: metrics_.time_saving += dt; metrics_.energy_save += energy; break;
    case McuState::restoring:
      metrics_.time_restoring += dt;
      metrics_.energy_restore += energy;
      break;
    case McuState::sleep: metrics_.time_sleep += dt; metrics_.energy_sleep += energy; break;
    case McuState::wait: metrics_.time_wait += dt; metrics_.energy_other += energy; break;
    case McuState::done: metrics_.time_done += dt; metrics_.energy_sleep += energy; break;
  }
}

void Mcu::advance(Seconds t, Seconds dt, Volts v_now) {
  EDC_CHECK(dt > 0.0, "dt must be positive");
  Seconds remaining = dt;
  Seconds now = t;
  while (remaining > kTimeEps) {
    switch (state_) {
      case McuState::off:
      case McuState::sleep:
      case McuState::wait:
      case McuState::done: {
        account_time(state_, remaining, v_now);
        now += remaining;
        remaining = 0.0;
        break;
      }
      case McuState::boot: {
        const double cycles_possible = remaining * frequency_;
        if (cycles_possible >= boot_cycles_left_) {
          const Seconds used = boot_cycles_left_ / frequency_;
          account_time(McuState::boot, used, v_now);
          now += used;
          remaining -= used;
          boot_cycles_left_ = 0.0;
          finish_boot(now);
        } else {
          boot_cycles_left_ -= cycles_possible;
          account_time(McuState::boot, remaining, v_now);
          remaining = 0.0;
        }
        break;
      }
      case McuState::saving: {
        const double cycles_possible = remaining * frequency_;
        if (cycles_possible >= save_cycles_left_) {
          const Seconds used = save_cycles_left_ / frequency_;
          account_time(McuState::saving, used, v_now);
          now += used;
          remaining -= used;
          save_cycles_left_ = 0.0;
          finish_save(now);
        } else {
          save_cycles_left_ -= cycles_possible;
          account_time(McuState::saving, remaining, v_now);
          remaining = 0.0;
        }
        break;
      }
      case McuState::restoring: {
        const double cycles_possible = remaining * frequency_;
        if (cycles_possible >= restore_cycles_left_) {
          const Seconds used = restore_cycles_left_ / frequency_;
          account_time(McuState::restoring, used, v_now);
          now += used;
          remaining -= used;
          restore_cycles_left_ = 0.0;
          finish_restore(now);
        } else {
          restore_cycles_left_ -= cycles_possible;
          account_time(McuState::restoring, remaining, v_now);
          remaining = 0.0;
        }
        break;
      }
      case McuState::active: {
        advance_active(now, remaining, v_now);
        break;
      }
    }
  }
}

void Mcu::advance_active(Seconds t, Seconds& remaining, Volts v) {
  double budget = remaining * frequency_;
  double consumed = 0.0;

  // Pending overhead (ADC polls) stalls the program first.
  if (stall_cycles_ > 0.0) {
    const double s = std::min(stall_cycles_, budget);
    stall_cycles_ -= s;
    budget -= s;
    consumed += s;
  }

  while (state_ == McuState::active && budget > 0.0) {
    if (program_->done()) {
      const Seconds t_now = t + consumed / frequency_;
      mark_done(t_now);
      break;
    }
    const auto cost = static_cast<double>(program_->next_tick_cost());
    const double need = cost - carry_cycles_;
    if (budget < need) {
      carry_cycles_ += budget;
      consumed += budget;
      budget = 0.0;
      break;
    }
    budget -= need;
    consumed += need;
    carry_cycles_ = 0.0;
    program_->run_tick();
    const std::uint64_t k = program_->ticks_done();
    if (k > max_tick_reached_) {
      metrics_.forward_cycles += cost;
      max_tick_reached_ = k;
    } else {
      metrics_.reexecuted_cycles += cost;
    }
    const Seconds t_now = t + consumed / frequency_;
    if (program_->done()) {
      metrics_.completed = true;
      metrics_.completion_time = t_now;
      policy_->on_workload_complete(*this, t_now);
      if (state_ == McuState::active) mark_done(t_now);
      break;
    }
    policy_->on_boundary(*this, program_->boundary(), t_now);
    if (stall_cycles_ > 0.0 && state_ == McuState::active) {
      const double s = std::min(stall_cycles_, budget);
      stall_cycles_ -= s;
      budget -= s;
      consumed += s;
    }
  }

  const Seconds used = std::min(consumed / frequency_, remaining);
  if (used > 0.0) {
    account_time(McuState::active, used, v);
    metrics_.cycles_active += consumed;
  }
  // Guarantee forward progress of the outer loop: if we are still active the
  // whole slice was consumed (budget exhausted / carry updated).
  remaining = (state_ == McuState::active) ? 0.0 : remaining - used;
}

void Mcu::finish_boot(Seconds t) {
  state_ = McuState::wait;  // provisional; the policy decides what happens
  policy_->on_boot(*this, t);
}

void Mcu::request_save(Seconds) {
  if (state_ != McuState::active) return;
  Snapshot snapshot;
  snapshot.program_state = program_->save_state();
  snapshot.carry_cycles = carry_cycles_;
  nvm_.begin_write(std::move(snapshot));
  save_cycles_left_ = static_cast<double>(params_.power.save_cycles(snapshot_image_bytes()));
  state_ = McuState::saving;
  ++metrics_.saves_started;
}

void Mcu::finish_save(Seconds t) {
  nvm_.commit();
  ++metrics_.saves_completed;
  state_ = McuState::sleep;  // default; policy may override
  policy_->on_save_complete(*this, t);
}

void Mcu::request_restore(Seconds) {
  EDC_CHECK(nvm_.has_valid_snapshot(), "restore requested without a snapshot");
  if (state_ != McuState::wait && state_ != McuState::sleep) return;
  const std::size_t image =
      (memory_mode_ == MemoryMode::sram_execution ? nvm_.snapshot().program_state.size()
                                                  : 0) +
      params_.power.register_file_bytes;
  restore_cycles_left_ = static_cast<double>(params_.power.restore_cycles(image));
  state_ = McuState::restoring;
}

void Mcu::finish_restore(Seconds t) {
  const Snapshot& snapshot = nvm_.snapshot();
  program_->restore_state(snapshot.program_state);
  carry_cycles_ = snapshot.carry_cycles;
  ram_valid_ = true;
  if (!peripherals_configured_) {
    if (snapshot_peripherals_) {
      // The peripheral file was part of the image: configuration is back.
      peripherals_configured_ = true;
    } else {
      // The application must re-initialise its peripherals before using
      // them (SPI register writes, ADC calibration, PLL lock, ...).
      stall_cycles_ += static_cast<double>(params_.peripheral_reinit_cycles);
      ++metrics_.peripheral_reinits;
      peripherals_configured_ = true;
    }
  }
  ++metrics_.restores;
  state_ = McuState::active;  // default; policy may override
  policy_->on_restore_complete(*this, t);
}

void Mcu::start_program_fresh(Seconds) {
  program_->reset();
  carry_cycles_ = 0.0;
  ram_valid_ = true;
  if (!peripherals_configured_) {
    // First-boot peripheral initialisation (every system pays this once
    // per power cycle when starting from scratch).
    stall_cycles_ += static_cast<double>(params_.peripheral_reinit_cycles);
    ++metrics_.peripheral_reinits;
    peripherals_configured_ = true;
  }
  state_ = McuState::active;
}

void Mcu::resume_execution(Seconds) {
  EDC_CHECK(ram_valid_, "resume requested but RAM contents were lost");
  ++metrics_.direct_resumes;
  state_ = McuState::active;
}

void Mcu::enter_sleep(Seconds) { state_ = McuState::sleep; }

void Mcu::enter_wait(Seconds) { state_ = McuState::wait; }

void Mcu::mark_done(Seconds) { state_ = McuState::done; }

void Mcu::set_frequency(Hertz f) {
  EDC_CHECK(f > 0.0, "frequency must be positive");
  frequency_ = f;
}

circuit::Crossing Mcu::plan_crossing(const circuit::AffineSolution& trajectory,
                                     Volts pad, Seconds t_max) const {
  const McuPowerModel& p = params_.power;
  if (state_ == McuState::off) {
    return {circuit::first_fire(trajectory, p.v_on, circuit::Trigger::at_or_above, pad,
                                t_max),
            p.v_on};
  }
  circuit::Crossing crossing = comparators_.plan_crossing(trajectory, pad, t_max);
  const Seconds loss =
      circuit::first_fire(trajectory, p.v_min, circuit::Trigger::below, pad, t_max);
  if (loss < crossing.time) crossing = {loss, p.v_min};
  return crossing;
}

std::size_t Mcu::add_comparator(const std::string& name, Volts threshold,
                                Volts hysteresis) {
  circuit::Comparator comparator(name, threshold, hysteresis);
  comparator.reset(vcc_);
  return comparators_.add(std::move(comparator));
}

void Mcu::set_comparator_threshold(std::size_t index, Volts threshold) {
  auto& comparator = comparators_.at(index);
  comparator.set_threshold(threshold);
  // Re-arm against the present supply so the output state is consistent
  // with the new trip point (otherwise a lowered threshold could leave the
  // comparator latched low and unable to emit its falling edge).
  comparator.reset(vcc_);
}

Volts Mcu::poll_vcc() {
  stall_cycles_ += static_cast<double>(params_.power.vcc_poll_cycles);
  metrics_.poll_cycles += static_cast<double>(params_.power.vcc_poll_cycles);
  return vcc_;
}

void Mcu::inject_busy(double cycles) {
  EDC_CHECK(cycles >= 0.0, "cycles must be non-negative");
  stall_cycles_ += cycles;
  metrics_.poll_cycles += cycles;
}

std::size_t Mcu::snapshot_image_bytes() const {
  const std::size_t ram =
      (memory_mode_ == MemoryMode::sram_execution) ? program_->ram_footprint() : 0;
  const std::size_t peripherals =
      snapshot_peripherals_ ? params_.peripheral_file_bytes : 0;
  return ram + params_.power.register_file_bytes + peripherals;
}

Joules Mcu::snapshot_energy_now() const {
  return params_.power.save_energy(snapshot_image_bytes(), frequency_,
                                   std::max(vcc_, params_.power.v_min));
}

}  // namespace edc::mcu
