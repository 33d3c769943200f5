#include "edc/spec/serialize.h"

#include <string>

namespace edc::spec {

namespace {

using canon::Record;

// Tag tables: enums in declaration order, variants in alternative order
// (nullptr for the opaque-callback alternatives, which never serialize).

constexpr const char* kMemoryModes[] = {"sram", "unified_fram", "nvp"};
constexpr const char* kRectifierKinds[] = {"half_wave", "full_wave"};
constexpr const char* kMementosModes[] = {"loop", "function", "timer"};
constexpr const char* kSources[] = {
    "none",
    "sine", "dc", "square", "wind", "kinetic", "voltage_trace", nullptr,
    "constant_power", "markov_power", "rf_field", "coupled_rf", "indoor_pv", "solar",
    "power_trace", nullptr};
constexpr const char* kPolicies[] = {
    "hibernus", "none", "hibernus_pp", "quickrecall", "nvp", "mementos", "burst",
    "adaptive_buffer", nullptr};

// ---- source ---------------------------------------------------------------

/// Alternatives without fields. The opaque-callback ones have a nullptr
/// tag, so variant() throws before it would walk them.
void walk(auto&, Record<std::monostate, NoCheckpoint, CustomVoltageSource,
                        CustomPowerSource, CustomPolicy> auto&) {}

void walk(auto& io, Record<SineSource> auto& s) {
  io("amplitude", s.amplitude);
  io("frequency", s.frequency);
  io("offset", s.offset);
  io("series_resistance", s.series_resistance);
}

void walk(auto& io, Record<DcSource> auto& s) {
  io("voltage", s.voltage);
  io("series_resistance", s.series_resistance);
}

void walk(auto& io, Record<SquareSource> auto& s) {
  io("high", s.high);
  io("frequency", s.frequency);
  io("duty", s.duty);
  io("low", s.low);
  io("series_resistance", s.series_resistance);
}

void walk(auto& io, Record<WindSource> auto& s) {
  io("peak_voltage", s.params.peak_voltage);
  io("peak_frequency", s.params.peak_frequency);
  io("gust_rise", s.params.gust_rise);
  io("gust_fall", s.params.gust_fall);
  io("gust_period", s.params.gust_period);
  io("gust_jitter", s.params.gust_jitter);
  io("cut_in_voltage", s.params.cut_in_voltage);
  io("coil_resistance", s.params.coil_resistance);
  io("seed", s.seed);
  io("horizon", s.horizon);
}

void walk(auto& io, Record<KineticSource> auto& s) {
  io("impulse_peak", s.params.impulse_peak);
  io("resonance", s.params.resonance);
  io("ring_tau", s.params.ring_tau);
  io("step_period", s.params.step_period);
  io("step_jitter", s.params.step_jitter);
  io("coil_resistance", s.params.coil_resistance);
  io("seed", s.seed);
  io("horizon", s.horizon);
}

void walk(auto& io, Record<VoltageTraceSource> auto& s) {
  io.section("wave", [&] { io.wave(s.wave); });
  io("series_resistance", s.series_resistance);
  io("label", s.label);
}

void walk(auto& io, Record<ConstantPower> auto& s) { io("power", s.power); }

void walk(auto& io, Record<MarkovPower> auto& s) {
  io("on_power", s.on_power);
  io("mean_on", s.mean_on);
  io("mean_off", s.mean_off);
  io("seed", s.seed);
  io("horizon", s.horizon);
}

/// The RF field block shared by rf_field and coupled_rf.
void walk(auto& io, Record<trace::RfFieldSource::Params> auto& p) {
  io("field_power", p.field_power);
  io("burst_length", p.burst_length);
  io("burst_period", p.burst_period);
  io("jitter", p.jitter);
}

void walk(auto& io, Record<RfFieldPower> auto& s) {
  walk(io, s.params);
  io("seed", s.seed);
  io("horizon", s.horizon);
}

void walk(auto& io, Record<CoupledRfPower> auto& s) {
  walk(io, s.field);
  io("seed", s.seed);
  io("horizon", s.horizon);
  io("gain", s.gain);
  io("window_period", s.window_period);
  io("window_duty", s.window_duty);
  io("window_phase", s.window_phase);
}

void walk(auto& io, Record<IndoorPvPower> auto& s) {
  io("night_current_ua", s.params.night_current_ua);
  io("day_current_ua", s.params.day_current_ua);
  io("day_start_h", s.params.day_start_h);
  io("day_end_h", s.params.day_end_h);
  io("shoulder_h", s.params.shoulder_h);
  io("noise_ua", s.params.noise_ua);
  io("operating_voltage", s.params.operating_voltage);
  io("day_to_day_jitter", s.params.day_to_day_jitter);
  io("seed", s.seed);
  io("days", s.days);
}

void walk(auto& io, Record<SolarPower> auto& s) {
  io("panel_peak", s.params.panel_peak);
  io("sunrise_h", s.params.sunrise_h);
  io("sunset_h", s.params.sunset_h);
  io("cloud_depth", s.params.cloud_depth);
  io("cloud_correlation", s.params.cloud_correlation);
  io("day_to_day_jitter", s.params.day_to_day_jitter);
  io("seed", s.seed);
  io("days", s.days);
}

void walk(auto& io, Record<PowerTraceSource> auto& s) {
  io.section("wave", [&] { io.wave(s.wave); });
  io("label", s.label);
}

// ---- policy ---------------------------------------------------------------

void walk(auto& io, Record<checkpoint::InterruptPolicy::Config> auto& c) {
  io("capacitance", c.capacitance);
  io("margin", c.margin);
  io("v_hibernate", c.v_hibernate);
  io("v_restore", c.v_restore);
  io("restore_headroom", c.restore_headroom);
  io.tag("memory_mode", c.memory_mode, kMemoryModes);
}

void walk(auto& io, Record<Hibernus, QuickRecall, Nvp> auto& p) { walk(io, p.config); }

void walk(auto& io, Record<HibernusPlusPlus> auto& p) {
  io.optional("config", p.config, "default", "set", [&](auto& c) {
    io("measurement_error", c.measurement_error);
    io("calibration_cycles", c.calibration_cycles);
    io("initial_margin", c.initial_margin);
    io("restore_headroom", c.restore_headroom);
    io("seed", c.seed);
  });
}

void walk(auto& io, Record<Mementos> auto& p) {
  io.tag("mode", p.config.mode, kMementosModes);
  io("v_threshold", p.config.v_threshold);
  io("timer_interval", p.config.timer_interval);
  io("poll_stride", p.config.poll_stride);
}

void walk(auto& io, Record<BurstTask> auto& p) {
  io("task_energy", p.config.task_energy);
  io("capacitance", p.config.capacitance);
  io("margin", p.config.margin);
}

void walk(auto& io, Record<AdaptiveBuffer> auto& p) {
  io("task_energy", p.config.task_energy);
  io("capacitance", p.config.capacitance);
  io("margin", p.config.margin);
  io("ewma_alpha", p.config.ewma_alpha);
  io("rate_reference", p.config.rate_reference);
  io("min_buffer", p.config.min_buffer);
  io("max_buffer", p.config.max_buffer);
}

// ---- spec body ------------------------------------------------------------

void walk(auto& io, Record<SystemSpec> auto& spec) {
  io.variant("source", spec.source, kSources, [&](auto& s) { walk(io, s); });
  io.section("rectifier", [&] {
    io.tag("kind", spec.rectifier.kind, kRectifierKinds);
    io("diode_drop", spec.rectifier.diode_drop);
  });
  io.section("harvester", [&] {
    io("efficiency", spec.harvester.efficiency);
    io("v_ceiling", spec.harvester.v_ceiling);
    io("i_max", spec.harvester.i_max);
    io("v_floor", spec.harvester.v_floor);
  });
  io.section("storage", [&] {
    io("capacitance", spec.storage.capacitance);
    io("initial_voltage", spec.storage.initial_voltage);
    io("bleed", spec.storage.bleed);
  });
  io.section("workload", [&] {
    io("kind", spec.workload.kind);
    io("seed", spec.workload.seed);
  });
  io.variant("policy", spec.policy, kPolicies, [&](auto& p) { walk(io, p); });
  io.optional("governor", spec.governor, "none", "dfs", [&](auto& g) {
    io("v_ref", g.v_ref);
    io("band", g.band);
    io("period", g.period);
    io("frequencies", g.frequencies);
  });
  io.section("mcu", [&] {
    auto& p = spec.mcu.power;
    io.section("power", [&] {
      io("v_min", p.v_min);
      io("v_on", p.v_on);
      io("i_base", p.i_base);
      io("i_per_hz_sram", p.i_per_hz_sram);
      io("i_per_hz_fram", p.i_per_hz_fram);
      io("i_per_hz_nvp", p.i_per_hz_nvp);
      io("i_per_hz_nvm_write", p.i_per_hz_nvm_write);
      io("i_sleep", p.i_sleep);
      io("i_deep_wait", p.i_deep_wait);
      io("boot_cycles", p.boot_cycles);
      io("save_overhead_cycles", p.save_overhead_cycles);
      io("save_cycles_per_byte", p.save_cycles_per_byte);
      io("restore_overhead_cycles", p.restore_overhead_cycles);
      io("restore_cycles_per_byte", p.restore_cycles_per_byte);
      io("register_file_bytes", p.register_file_bytes);
      io("vcc_poll_cycles", p.vcc_poll_cycles);
    });
    io("initial_frequency", spec.mcu.initial_frequency);
    io.tag("memory_mode", spec.mcu.memory_mode, kMemoryModes);
    io("peripheral_file_bytes", spec.mcu.peripheral_file_bytes);
    io("peripheral_reinit_cycles", spec.mcu.peripheral_reinit_cycles);
  });
  io("snapshot_peripherals", spec.snapshot_peripherals);
  io.section("sim", [&] {
    io("dt", spec.sim.dt);
    io("t_end", spec.sim.t_end);
    io("node_substeps", spec.sim.node_substeps);
    io("stop_on_completion", spec.sim.stop_on_completion);
    io("probe_interval", spec.sim.probe_interval);
    io("quiescent_fast_path", spec.sim.quiescent_fast_path);
    io("macro_stepping", spec.sim.macro_stepping);
    io("macro_v_tol", spec.sim.macro_v_tol);
  });
}

}  // namespace

// ---- public API -----------------------------------------------------------

std::string non_cacheable_reason(const SystemSpec& spec) {
  if (std::holds_alternative<CustomVoltageSource>(spec.source)) {
    return "source: CustomVoltageSource holds an opaque factory callback";
  }
  if (std::holds_alternative<CustomPowerSource>(spec.source)) {
    return "source: CustomPowerSource holds an opaque factory callback";
  }
  if (spec.workload.factory) {
    return "workload: custom program factory is an opaque callback";
  }
  if (std::holds_alternative<CustomPolicy>(spec.policy)) {
    return "policy: CustomPolicy holds an opaque factory callback";
  }
  if (const auto* hpp = std::get_if<HibernusPlusPlus>(&spec.policy)) {
    if (hpp->config.has_value() && hpp->config->capacitance_probe) {
      return "policy: hibernus++ carries a custom capacitance probe callback";
    }
  }
  return {};
}

bool is_cacheable(const SystemSpec& spec) { return non_cacheable_reason(spec).empty(); }

namespace {

std::string write_spec(const SystemSpec& spec, canon::TraceForm traces) {
  const std::string reason = non_cacheable_reason(spec);
  if (!reason.empty()) {
    throw SpecFormatError("spec is not serializable — " + reason);
  }

  canon::Writer w(traces);
  w.document("edc.SystemSpec", kSpecFormatVersion, [&] { walk(w, spec); });
  return w.take();
}

}  // namespace

std::string serialize(const SystemSpec& spec) {
  return write_spec(spec, canon::TraceForm::digest);
}

std::string document(const SystemSpec& spec) {
  return write_spec(spec, canon::TraceForm::samples);
}

SystemSpec parse_spec(const std::string& text) {
  canon::Reader r(text);
  SystemSpec spec;
  r.document("edc.SystemSpec", kSpecFormatVersion, [&] { walk(r, spec); });
  return spec;
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t spec_hash(const SystemSpec& spec) { return fnv1a64(serialize(spec)); }

}  // namespace edc::spec
