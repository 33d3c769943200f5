#include "edc/sim/result_io.h"

#include <cstddef>
#include <string>

#include "edc/common/canon.h"

namespace edc::sim {

namespace {

using canon::Record;

// mcu::McuState in declaration order.
constexpr const char* kStates[] = {"off",       "boot",  "active", "saving",
                                   "restoring", "sleep", "wait",   "done"};

void walk(auto& io, Record<mcu::McuMetrics> auto& m) {
  io("time_off", m.time_off);
  io("time_boot", m.time_boot);
  io("time_active", m.time_active);
  io("time_saving", m.time_saving);
  io("time_restoring", m.time_restoring);
  io("time_sleep", m.time_sleep);
  io("time_wait", m.time_wait);
  io("time_done", m.time_done);
  io("cycles_active", m.cycles_active);
  io("forward_cycles", m.forward_cycles);
  io("reexecuted_cycles", m.reexecuted_cycles);
  io("poll_cycles", m.poll_cycles);
  io("boots", m.boots);
  io("brownouts", m.brownouts);
  io("saves_started", m.saves_started);
  io("saves_completed", m.saves_completed);
  io("restores", m.restores);
  io("direct_resumes", m.direct_resumes);
  io("peripheral_reinits", m.peripheral_reinits);
  io("energy_active", m.energy_active);
  io("energy_save", m.energy_save);
  io("energy_restore", m.energy_restore);
  io("energy_sleep", m.energy_sleep);
  io("energy_other", m.energy_other);
  io("completed", m.completed);
  io("completion_time", m.completion_time);
}

void walk(auto& io, Record<SimResult> auto& r) {
  io("end_time", r.end_time);
  io("harvested", r.harvested);
  io("consumed", r.consumed);
  io("dissipated", r.dissipated);
  io("stored_initial", r.stored_initial);
  io("stored_final", r.stored_final);
  io("nvm_torn_writes", r.nvm_torn_writes);
  io("nvm_commits", r.nvm_commits);
  io("fine_steps", r.fine_steps);
  io("span_steps", r.span_steps);
  io("spans", r.spans);
  io.section("mcu", [&] { walk(io, r.mcu); });
  io.list(
      "transitions",
      [&](std::size_t, auto& change) {
        io.section("at", change.time, [&] {
          io.tag("from", change.from, kStates);
          io.tag("to", change.to, kStates);
          io("vcc", change.vcc);
        });
      },
      r.transitions);
  io.list(
      "probes",
      [&](std::size_t, auto& name, auto& wave) {
        io.section("probe", [&] {
          io("name", name);
          io.wave(wave);
        });
      },
      r.probes.names, r.probes.waves);
}

}  // namespace

std::string serialize_result(const SimResult& result) {
  canon::Writer w;
  w.document("edc.SimResult", kResultFormatVersion, [&] { walk(w, result); });
  return w.take();
}

SimResult parse_result(const std::string& text) {
  canon::Reader r(text);
  SimResult result;
  r.document("edc.SimResult", kResultFormatVersion, [&] { walk(r, result); });
  return result;
}

}  // namespace edc::sim
