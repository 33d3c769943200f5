#include "edc/sim/result_io.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "edc/common/canon.h"

namespace edc::sim {

namespace {

using canon::FormatError;
using canon::Reader;
using canon::Writer;

const char* state_tag(mcu::McuState state) {
  switch (state) {
    case mcu::McuState::off: return "off";
    case mcu::McuState::boot: return "boot";
    case mcu::McuState::active: return "active";
    case mcu::McuState::saving: return "saving";
    case mcu::McuState::restoring: return "restoring";
    case mcu::McuState::sleep: return "sleep";
    case mcu::McuState::wait: return "wait";
    case mcu::McuState::done: return "done";
  }
  throw FormatError("unknown MCU state");
}

mcu::McuState parse_state(std::string_view tag) {
  using S = mcu::McuState;
  if (tag == "off") return S::off;
  if (tag == "boot") return S::boot;
  if (tag == "active") return S::active;
  if (tag == "saving") return S::saving;
  if (tag == "restoring") return S::restoring;
  if (tag == "sleep") return S::sleep;
  if (tag == "wait") return S::wait;
  if (tag == "done") return S::done;
  throw FormatError("unknown MCU state tag: '" + std::string(tag) + "'");
}

void write_waveform(Writer& w, const trace::Waveform& wave) {
  w.field("t0", wave.t0());
  w.field("dt", wave.dt());
  w.begin("samples", std::to_string(wave.size()));
  for (double sample : wave.samples()) w.bare(sample);
  w.end();
}

trace::Waveform read_waveform(Reader& r) {
  const Seconds t0 = r.number("t0");
  const Seconds dt = r.number("dt");
  const std::size_t count = r.begin_counted("samples");
  if (count >= 2 && !(dt > 0.0)) {
    throw FormatError("waveform sample spacing must be positive");
  }
  std::vector<double> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) samples.push_back(r.bare_number());
  r.end();
  return trace::Waveform(t0, dt, std::move(samples));
}

}  // namespace

std::string serialize_result(const SimResult& result) {
  Writer w;
  w.begin("edc.SimResult", "v" + std::to_string(kResultFormatVersion));

  w.field("end_time", result.end_time);
  w.field("harvested", result.harvested);
  w.field("consumed", result.consumed);
  w.field("dissipated", result.dissipated);
  w.field("stored_initial", result.stored_initial);
  w.field("stored_final", result.stored_final);
  w.field("nvm_torn_writes", result.nvm_torn_writes);
  w.field("nvm_commits", result.nvm_commits);
  w.field("fine_steps", result.fine_steps);
  w.field("span_steps", result.span_steps);
  w.field("spans", result.spans);

  const auto& m = result.mcu;
  w.begin("mcu");
  w.field("time_off", m.time_off);
  w.field("time_boot", m.time_boot);
  w.field("time_active", m.time_active);
  w.field("time_saving", m.time_saving);
  w.field("time_restoring", m.time_restoring);
  w.field("time_sleep", m.time_sleep);
  w.field("time_wait", m.time_wait);
  w.field("time_done", m.time_done);
  w.field("cycles_active", m.cycles_active);
  w.field("forward_cycles", m.forward_cycles);
  w.field("reexecuted_cycles", m.reexecuted_cycles);
  w.field("poll_cycles", m.poll_cycles);
  w.field("boots", m.boots);
  w.field("brownouts", m.brownouts);
  w.field("saves_started", m.saves_started);
  w.field("saves_completed", m.saves_completed);
  w.field("restores", m.restores);
  w.field("direct_resumes", m.direct_resumes);
  w.field("peripheral_reinits", m.peripheral_reinits);
  w.field("energy_active", m.energy_active);
  w.field("energy_save", m.energy_save);
  w.field("energy_restore", m.energy_restore);
  w.field("energy_sleep", m.energy_sleep);
  w.field("energy_other", m.energy_other);
  w.field("completed", m.completed);
  w.field("completion_time", m.completion_time);
  w.end();

  w.begin("transitions", std::to_string(result.transitions.size()));
  for (const StateChange& change : result.transitions) {
    w.begin("at", canon::double_text(change.time));
    w.begin("from", state_tag(change.from));
    w.end();
    w.begin("to", state_tag(change.to));
    w.end();
    w.field("vcc", change.vcc);
    w.end();
  }
  w.end();

  w.begin("probes", std::to_string(result.probes.names.size()));
  for (std::size_t i = 0; i < result.probes.names.size(); ++i) {
    w.begin("probe");
    w.field_string("name", result.probes.names[i]);
    write_waveform(w, result.probes.waves[i]);
    w.end();
  }
  w.end();

  w.end();
  return w.take();
}

SimResult parse_result(const std::string& text) {
  Reader r(text);
  const std::string_view version = r.begin_tagged("edc.SimResult");
  if (version != "v" + std::to_string(kResultFormatVersion)) {
    throw FormatError("unsupported result format version: '" +
                      std::string(version) + "'");
  }

  SimResult result;
  result.end_time = r.number("end_time");
  result.harvested = r.number("harvested");
  result.consumed = r.number("consumed");
  result.dissipated = r.number("dissipated");
  result.stored_initial = r.number("stored_initial");
  result.stored_final = r.number("stored_final");
  result.nvm_torn_writes = r.u64("nvm_torn_writes");
  result.nvm_commits = r.u64("nvm_commits");
  result.fine_steps = r.u64("fine_steps");
  result.span_steps = r.u64("span_steps");
  result.spans = r.u64("spans");

  auto& m = result.mcu;
  r.begin("mcu");
  m.time_off = r.number("time_off");
  m.time_boot = r.number("time_boot");
  m.time_active = r.number("time_active");
  m.time_saving = r.number("time_saving");
  m.time_restoring = r.number("time_restoring");
  m.time_sleep = r.number("time_sleep");
  m.time_wait = r.number("time_wait");
  m.time_done = r.number("time_done");
  m.cycles_active = r.number("cycles_active");
  m.forward_cycles = r.number("forward_cycles");
  m.reexecuted_cycles = r.number("reexecuted_cycles");
  m.poll_cycles = r.number("poll_cycles");
  m.boots = r.u64("boots");
  m.brownouts = r.u64("brownouts");
  m.saves_started = r.u64("saves_started");
  m.saves_completed = r.u64("saves_completed");
  m.restores = r.u64("restores");
  m.direct_resumes = r.u64("direct_resumes");
  m.peripheral_reinits = r.u64("peripheral_reinits");
  m.energy_active = r.number("energy_active");
  m.energy_save = r.number("energy_save");
  m.energy_restore = r.number("energy_restore");
  m.energy_sleep = r.number("energy_sleep");
  m.energy_other = r.number("energy_other");
  m.completed = r.boolean("completed");
  m.completion_time = r.number("completion_time");
  r.end();

  const std::size_t transition_count = r.begin_counted("transitions");
  result.transitions.reserve(transition_count);
  for (std::size_t i = 0; i < transition_count; ++i) {
    StateChange change;
    change.time = canon::parse_double(r.begin_tagged("at"));
    change.from = parse_state(r.begin_tagged("from"));
    r.end();
    change.to = parse_state(r.begin_tagged("to"));
    r.end();
    change.vcc = r.number("vcc");
    r.end();
    result.transitions.push_back(change);
  }
  r.end();

  const std::size_t probe_count = r.begin_counted("probes");
  for (std::size_t i = 0; i < probe_count; ++i) {
    r.begin("probe");
    std::string name = r.text("name");
    result.probes.add(std::move(name), read_waveform(r));
    r.end();
  }
  r.end();

  r.end();
  r.finish();
  return result;
}

// ---- fleets ----------------------------------------------------------------

std::string serialize_fleet_result(const FleetResult& result) {
  std::string out = "edc.FleetResult v" +
                    std::to_string(kFleetResultFormatVersion) + '\n';
  out += "nodes " + std::to_string(result.nodes.size()) + '\n';
  for (const SimResult& node : result.nodes) {
    const std::string bytes = serialize_result(node);
    out += "node_bytes " + std::to_string(bytes.size()) + '\n';
    out += bytes;
  }
  return out;
}

FleetResult parse_fleet_result(const std::string& text) {
  std::size_t pos = 0;
  const auto read_line = [&]() -> std::string {
    const std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      throw FormatError("fleet result truncated: missing newline");
    }
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };
  const auto prefixed_u64 = [](const std::string& line,
                               std::string_view prefix) -> std::uint64_t {
    if (line.rfind(prefix, 0) != 0) {
      throw FormatError("fleet result: expected '" + std::string(prefix) +
                        "', got '" + line + "'");
    }
    return canon::parse_u64(std::string_view(line).substr(prefix.size()));
  };

  const std::string magic = read_line();
  if (magic != "edc.FleetResult v" + std::to_string(kFleetResultFormatVersion)) {
    throw FormatError("unsupported fleet result header: '" + magic + "'");
  }
  // Every node block starts with its own node_bytes line.
  const std::size_t node_count = canon::checked_count(
      prefixed_u64(read_line(), "nodes "),
      static_cast<std::size_t>(std::count(text.begin() + static_cast<std::ptrdiff_t>(pos),
                                          text.end(), '\n')),
      "nodes");

  FleetResult result;
  result.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::uint64_t length = prefixed_u64(read_line(), "node_bytes ");
    if (length > text.size() - pos) {
      throw FormatError("fleet result truncated inside node block " +
                        std::to_string(i));
    }
    result.nodes.push_back(parse_result(text.substr(pos, length)));
    pos += length;
  }
  if (pos != text.size()) {
    throw FormatError("fleet result has trailing bytes after the last node");
  }
  return result;
}

}  // namespace edc::sim
