#include "edc/spec/serialize.h"

#include <cstddef>
#include <utility>
#include <vector>

namespace edc::spec {

namespace {

using canon::parse_u64;
using canon::Reader;
using canon::Writer;

template <typename... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <typename... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

// ---- enum tags ------------------------------------------------------------

const char* memory_mode_tag(mcu::MemoryMode mode) {
  switch (mode) {
    case mcu::MemoryMode::sram_execution: return "sram";
    case mcu::MemoryMode::unified_fram: return "unified_fram";
    case mcu::MemoryMode::nv_processor: return "nvp";
  }
  throw SpecFormatError("unknown memory mode");
}

mcu::MemoryMode parse_memory_mode(std::string_view tag) {
  if (tag == "sram") return mcu::MemoryMode::sram_execution;
  if (tag == "unified_fram") return mcu::MemoryMode::unified_fram;
  if (tag == "nvp") return mcu::MemoryMode::nv_processor;
  throw SpecFormatError("unknown memory mode tag: '" + std::string(tag) + "'");
}

const char* rectifier_tag(circuit::RectifierKind kind) {
  switch (kind) {
    case circuit::RectifierKind::half_wave: return "half_wave";
    case circuit::RectifierKind::full_wave: return "full_wave";
  }
  throw SpecFormatError("unknown rectifier kind");
}

circuit::RectifierKind parse_rectifier_kind(std::string_view tag) {
  if (tag == "half_wave") return circuit::RectifierKind::half_wave;
  if (tag == "full_wave") return circuit::RectifierKind::full_wave;
  throw SpecFormatError("unknown rectifier tag: '" + std::string(tag) + "'");
}

const char* mementos_mode_tag(checkpoint::MementosPolicy::Mode mode) {
  switch (mode) {
    case checkpoint::MementosPolicy::Mode::loop: return "loop";
    case checkpoint::MementosPolicy::Mode::function: return "function";
    case checkpoint::MementosPolicy::Mode::timer: return "timer";
  }
  throw SpecFormatError("unknown mementos mode");
}

checkpoint::MementosPolicy::Mode parse_mementos_mode(std::string_view tag) {
  using Mode = checkpoint::MementosPolicy::Mode;
  if (tag == "loop") return Mode::loop;
  if (tag == "function") return Mode::function;
  if (tag == "timer") return Mode::timer;
  throw SpecFormatError("unknown mementos mode tag: '" + std::string(tag) + "'");
}

// ---- waveform -------------------------------------------------------------

void write_waveform(Writer& w, const trace::Waveform& wave) {
  w.begin("wave");
  w.field("t0", wave.t0());
  w.field("dt", wave.dt());
  w.begin("samples", std::to_string(wave.size()));
  for (double sample : wave.samples()) w.bare(sample);
  w.end();
  w.end();
}

trace::Waveform read_waveform(Reader& r) {
  r.begin("wave");
  const Seconds t0 = r.number("t0");
  const Seconds dt = r.number("dt");
  const std::size_t count = parse_u64(r.begin_tagged("samples"));
  std::vector<double> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) samples.push_back(r.bare_number());
  r.end();
  r.end();
  return trace::Waveform(t0, dt, std::move(samples));
}

// ---- source ---------------------------------------------------------------

void write_source(Writer& w, const SourceSpec& source) {
  std::visit(
      Overloaded{
          [&](const std::monostate&) { w.begin("source", "none"); },
          [&](const SineSource& s) {
            w.begin("source", "sine");
            w.field("amplitude", s.amplitude);
            w.field("frequency", s.frequency);
            w.field("offset", s.offset);
            w.field("series_resistance", s.series_resistance);
          },
          [&](const DcSource& s) {
            w.begin("source", "dc");
            w.field("voltage", s.voltage);
            w.field("series_resistance", s.series_resistance);
          },
          [&](const SquareSource& s) {
            w.begin("source", "square");
            w.field("high", s.high);
            w.field("frequency", s.frequency);
            w.field("duty", s.duty);
            w.field("low", s.low);
            w.field("series_resistance", s.series_resistance);
          },
          [&](const WindSource& s) {
            w.begin("source", "wind");
            w.field("peak_voltage", s.params.peak_voltage);
            w.field("peak_frequency", s.params.peak_frequency);
            w.field("gust_rise", s.params.gust_rise);
            w.field("gust_fall", s.params.gust_fall);
            w.field("gust_period", s.params.gust_period);
            w.field("gust_jitter", s.params.gust_jitter);
            w.field("cut_in_voltage", s.params.cut_in_voltage);
            w.field("coil_resistance", s.params.coil_resistance);
            w.field("seed", s.seed);
            w.field("horizon", s.horizon);
          },
          [&](const KineticSource& s) {
            w.begin("source", "kinetic");
            w.field("impulse_peak", s.params.impulse_peak);
            w.field("resonance", s.params.resonance);
            w.field("ring_tau", s.params.ring_tau);
            w.field("step_period", s.params.step_period);
            w.field("step_jitter", s.params.step_jitter);
            w.field("coil_resistance", s.params.coil_resistance);
            w.field("seed", s.seed);
            w.field("horizon", s.horizon);
          },
          [&](const VoltageTraceSource& s) {
            w.begin("source", "voltage_trace");
            write_waveform(w, s.wave);
            w.field("series_resistance", s.series_resistance);
            w.field_string("label", s.label);
          },
          [&](const CustomVoltageSource&) {
            throw SpecFormatError("custom voltage source is not serializable");
          },
          [&](const ConstantPower& s) {
            w.begin("source", "constant_power");
            w.field("power", s.power);
          },
          [&](const MarkovPower& s) {
            w.begin("source", "markov_power");
            w.field("on_power", s.on_power);
            w.field("mean_on", s.mean_on);
            w.field("mean_off", s.mean_off);
            w.field("seed", s.seed);
            w.field("horizon", s.horizon);
          },
          [&](const RfFieldPower& s) {
            w.begin("source", "rf_field");
            w.field("field_power", s.params.field_power);
            w.field("burst_length", s.params.burst_length);
            w.field("burst_period", s.params.burst_period);
            w.field("jitter", s.params.jitter);
            w.field("seed", s.seed);
            w.field("horizon", s.horizon);
          },
          [&](const CoupledRfPower& s) {
            w.begin("source", "coupled_rf");
            w.field("field_power", s.field.field_power);
            w.field("burst_length", s.field.burst_length);
            w.field("burst_period", s.field.burst_period);
            w.field("jitter", s.field.jitter);
            w.field("seed", s.seed);
            w.field("horizon", s.horizon);
            w.field("gain", s.gain);
            w.field("window_period", s.window_period);
            w.field("window_duty", s.window_duty);
            w.field("window_phase", s.window_phase);
          },
          [&](const IndoorPvPower& s) {
            w.begin("source", "indoor_pv");
            w.field("night_current_ua", s.params.night_current_ua);
            w.field("day_current_ua", s.params.day_current_ua);
            w.field("day_start_h", s.params.day_start_h);
            w.field("day_end_h", s.params.day_end_h);
            w.field("shoulder_h", s.params.shoulder_h);
            w.field("noise_ua", s.params.noise_ua);
            w.field("operating_voltage", s.params.operating_voltage);
            w.field("day_to_day_jitter", s.params.day_to_day_jitter);
            w.field("seed", s.seed);
            w.field("days", s.days);
          },
          [&](const SolarPower& s) {
            w.begin("source", "solar");
            w.field("panel_peak", s.params.panel_peak);
            w.field("sunrise_h", s.params.sunrise_h);
            w.field("sunset_h", s.params.sunset_h);
            w.field("cloud_depth", s.params.cloud_depth);
            w.field("cloud_correlation", s.params.cloud_correlation);
            w.field("day_to_day_jitter", s.params.day_to_day_jitter);
            w.field("seed", s.seed);
            w.field("days", s.days);
          },
          [&](const PowerTraceSource& s) {
            w.begin("source", "power_trace");
            write_waveform(w, s.wave);
            w.field_string("label", s.label);
          },
          [&](const CustomPowerSource&) {
            throw SpecFormatError("custom power source is not serializable");
          },
      },
      source);
  w.end();
}

SourceSpec read_source(Reader& r) {
  const std::string tag(r.begin_tagged("source"));
  SourceSpec source;
  if (tag == "none") {
    source = std::monostate{};
  } else if (tag == "sine") {
    SineSource s;
    s.amplitude = r.number("amplitude");
    s.frequency = r.number("frequency");
    s.offset = r.number("offset");
    s.series_resistance = r.number("series_resistance");
    source = s;
  } else if (tag == "dc") {
    DcSource s;
    s.voltage = r.number("voltage");
    s.series_resistance = r.number("series_resistance");
    source = s;
  } else if (tag == "square") {
    SquareSource s;
    s.high = r.number("high");
    s.frequency = r.number("frequency");
    s.duty = r.number("duty");
    s.low = r.number("low");
    s.series_resistance = r.number("series_resistance");
    source = s;
  } else if (tag == "wind") {
    WindSource s;
    s.params.peak_voltage = r.number("peak_voltage");
    s.params.peak_frequency = r.number("peak_frequency");
    s.params.gust_rise = r.number("gust_rise");
    s.params.gust_fall = r.number("gust_fall");
    s.params.gust_period = r.number("gust_period");
    s.params.gust_jitter = r.number("gust_jitter");
    s.params.cut_in_voltage = r.number("cut_in_voltage");
    s.params.coil_resistance = r.number("coil_resistance");
    s.seed = r.u64("seed");
    s.horizon = r.number("horizon");
    source = s;
  } else if (tag == "kinetic") {
    KineticSource s;
    s.params.impulse_peak = r.number("impulse_peak");
    s.params.resonance = r.number("resonance");
    s.params.ring_tau = r.number("ring_tau");
    s.params.step_period = r.number("step_period");
    s.params.step_jitter = r.number("step_jitter");
    s.params.coil_resistance = r.number("coil_resistance");
    s.seed = r.u64("seed");
    s.horizon = r.number("horizon");
    source = s;
  } else if (tag == "voltage_trace") {
    VoltageTraceSource s;
    s.wave = read_waveform(r);
    s.series_resistance = r.number("series_resistance");
    s.label = r.text("label");
    source = s;
  } else if (tag == "constant_power") {
    ConstantPower s;
    s.power = r.number("power");
    source = s;
  } else if (tag == "markov_power") {
    MarkovPower s;
    s.on_power = r.number("on_power");
    s.mean_on = r.number("mean_on");
    s.mean_off = r.number("mean_off");
    s.seed = r.u64("seed");
    s.horizon = r.number("horizon");
    source = s;
  } else if (tag == "rf_field") {
    RfFieldPower s;
    s.params.field_power = r.number("field_power");
    s.params.burst_length = r.number("burst_length");
    s.params.burst_period = r.number("burst_period");
    s.params.jitter = r.number("jitter");
    s.seed = r.u64("seed");
    s.horizon = r.number("horizon");
    source = s;
  } else if (tag == "coupled_rf") {
    CoupledRfPower s;
    s.field.field_power = r.number("field_power");
    s.field.burst_length = r.number("burst_length");
    s.field.burst_period = r.number("burst_period");
    s.field.jitter = r.number("jitter");
    s.seed = r.u64("seed");
    s.horizon = r.number("horizon");
    s.gain = r.number("gain");
    s.window_period = r.number("window_period");
    s.window_duty = r.number("window_duty");
    s.window_phase = r.number("window_phase");
    source = s;
  } else if (tag == "indoor_pv") {
    IndoorPvPower s;
    s.params.night_current_ua = r.number("night_current_ua");
    s.params.day_current_ua = r.number("day_current_ua");
    s.params.day_start_h = r.number("day_start_h");
    s.params.day_end_h = r.number("day_end_h");
    s.params.shoulder_h = r.number("shoulder_h");
    s.params.noise_ua = r.number("noise_ua");
    s.params.operating_voltage = r.number("operating_voltage");
    s.params.day_to_day_jitter = r.number("day_to_day_jitter");
    s.seed = r.u64("seed");
    s.days = r.integer("days");
    source = s;
  } else if (tag == "solar") {
    SolarPower s;
    s.params.panel_peak = r.number("panel_peak");
    s.params.sunrise_h = r.number("sunrise_h");
    s.params.sunset_h = r.number("sunset_h");
    s.params.cloud_depth = r.number("cloud_depth");
    s.params.cloud_correlation = r.number("cloud_correlation");
    s.params.day_to_day_jitter = r.number("day_to_day_jitter");
    s.seed = r.u64("seed");
    s.days = r.integer("days");
    source = s;
  } else if (tag == "power_trace") {
    PowerTraceSource s;
    s.wave = read_waveform(r);
    s.label = r.text("label");
    source = s;
  } else {
    throw SpecFormatError("unknown source tag: '" + tag + "'");
  }
  r.end();
  return source;
}

// ---- policy ---------------------------------------------------------------

checkpoint::InterruptPolicy::Config read_interrupt_config(Reader& r) {
  checkpoint::InterruptPolicy::Config c;
  c.capacitance = r.number("capacitance");
  c.margin = r.number("margin");
  c.v_hibernate = r.number("v_hibernate");
  c.v_restore = r.number("v_restore");
  c.restore_headroom = r.number("restore_headroom");
  c.memory_mode = parse_memory_mode(r.tag("memory_mode"));
  return c;
}

void write_policy(Writer& w, const PolicySpec& policy) {
  const auto interrupt_fields = [&w](const checkpoint::InterruptPolicy::Config& c) {
    w.field("capacitance", c.capacitance);
    w.field("margin", c.margin);
    w.field("v_hibernate", c.v_hibernate);
    w.field("v_restore", c.v_restore);
    w.field("restore_headroom", c.restore_headroom);
    w.begin("memory_mode", memory_mode_tag(c.memory_mode));
    w.end();
  };
  std::visit(
      Overloaded{
          [&](const Hibernus& p) {
            w.begin("policy", "hibernus");
            interrupt_fields(p.config);
          },
          [&](const NoCheckpoint&) { w.begin("policy", "none"); },
          [&](const HibernusPlusPlus& p) {
            w.begin("policy", "hibernus_pp");
            if (!p.config.has_value()) {
              w.begin("config", "default");
              w.end();
            } else {
              const auto& c = *p.config;
              if (c.capacitance_probe) {
                throw SpecFormatError(
                    "hibernus++ custom capacitance probe is not serializable");
              }
              w.begin("config", "set");
              w.field("measurement_error", c.measurement_error);
              w.field("calibration_cycles",
                      static_cast<std::uint64_t>(c.calibration_cycles));
              w.field("initial_margin", c.initial_margin);
              w.field("restore_headroom", c.restore_headroom);
              w.field("seed", c.seed);
              w.end();
            }
          },
          [&](const QuickRecall& p) {
            w.begin("policy", "quickrecall");
            interrupt_fields(p.config);
          },
          [&](const Nvp& p) {
            w.begin("policy", "nvp");
            interrupt_fields(p.config);
          },
          [&](const Mementos& p) {
            w.begin("policy", "mementos");
            w.begin("mode", mementos_mode_tag(p.config.mode));
            w.end();
            w.field("v_threshold", p.config.v_threshold);
            w.field("timer_interval", p.config.timer_interval);
            w.field("poll_stride", static_cast<std::uint64_t>(p.config.poll_stride));
          },
          [&](const BurstTask& p) {
            w.begin("policy", "burst");
            w.field("task_energy", p.config.task_energy);
            w.field("capacitance", p.config.capacitance);
            w.field("margin", p.config.margin);
          },
          [&](const AdaptiveBuffer& p) {
            w.begin("policy", "adaptive_buffer");
            w.field("task_energy", p.config.task_energy);
            w.field("capacitance", p.config.capacitance);
            w.field("margin", p.config.margin);
            w.field("ewma_alpha", p.config.ewma_alpha);
            w.field("rate_reference", p.config.rate_reference);
            w.field("min_buffer", static_cast<std::uint64_t>(p.config.min_buffer));
            w.field("max_buffer", static_cast<std::uint64_t>(p.config.max_buffer));
          },
          [&](const CustomPolicy&) {
            throw SpecFormatError("custom policy is not serializable");
          },
      },
      policy);
  w.end();
}

PolicySpec read_policy(Reader& r) {
  const std::string tag(r.begin_tagged("policy"));
  PolicySpec policy;
  if (tag == "hibernus") {
    policy = Hibernus{read_interrupt_config(r)};
  } else if (tag == "none") {
    policy = NoCheckpoint{};
  } else if (tag == "hibernus_pp") {
    HibernusPlusPlus p;
    const std::string config_tag(r.begin_tagged("config"));
    if (config_tag == "set") {
      checkpoint::HibernusPlusPlusPolicy::PlusConfig c;
      c.measurement_error = r.number("measurement_error");
      c.calibration_cycles = static_cast<Cycles>(r.u64("calibration_cycles"));
      c.initial_margin = r.number("initial_margin");
      c.restore_headroom = r.number("restore_headroom");
      c.seed = r.u64("seed");
      p.config = c;
    } else if (config_tag != "default") {
      throw SpecFormatError("unknown hibernus_pp config tag: '" + config_tag + "'");
    }
    r.end();
    policy = p;
  } else if (tag == "quickrecall") {
    policy = QuickRecall{read_interrupt_config(r)};
  } else if (tag == "nvp") {
    policy = Nvp{read_interrupt_config(r)};
  } else if (tag == "mementos") {
    Mementos p;
    const std::string mode_tag(r.begin_tagged("mode"));
    r.end();
    p.config.mode = parse_mementos_mode(mode_tag);
    p.config.v_threshold = r.number("v_threshold");
    p.config.timer_interval = r.number("timer_interval");
    p.config.poll_stride = static_cast<unsigned>(r.u64("poll_stride"));
    policy = p;
  } else if (tag == "burst") {
    BurstTask p;
    p.config.task_energy = r.number("task_energy");
    p.config.capacitance = r.number("capacitance");
    p.config.margin = r.number("margin");
    policy = p;
  } else if (tag == "adaptive_buffer") {
    AdaptiveBuffer p;
    p.config.task_energy = r.number("task_energy");
    p.config.capacitance = r.number("capacitance");
    p.config.margin = r.number("margin");
    p.config.ewma_alpha = r.number("ewma_alpha");
    p.config.rate_reference = r.number("rate_reference");
    p.config.min_buffer = static_cast<unsigned>(r.u64("min_buffer"));
    p.config.max_buffer = static_cast<unsigned>(r.u64("max_buffer"));
    policy = p;
  } else {
    throw SpecFormatError("unknown policy tag: '" + tag + "'");
  }
  r.end();
  return policy;
}

// ---- spec body (shared by the SystemSpec and FleetSpec containers) --------

void write_spec_body(Writer& w, const SystemSpec& spec) {
  write_source(w, spec.source);

  w.begin("rectifier");
  w.begin("kind", rectifier_tag(spec.rectifier.kind));
  w.end();
  w.field("diode_drop", spec.rectifier.diode_drop);
  w.end();

  w.begin("harvester");
  w.field("efficiency", spec.harvester.efficiency);
  w.field("v_ceiling", spec.harvester.v_ceiling);
  w.field("i_max", spec.harvester.i_max);
  w.field("v_floor", spec.harvester.v_floor);
  w.end();

  w.begin("storage");
  w.field("capacitance", spec.storage.capacitance);
  w.field("initial_voltage", spec.storage.initial_voltage);
  w.field("bleed", spec.storage.bleed);
  w.end();

  w.begin("workload");
  w.field_string("kind", spec.workload.kind);
  w.field("seed", spec.workload.seed);
  w.end();

  write_policy(w, spec.policy);

  if (!spec.governor.has_value()) {
    w.begin("governor", "none");
    w.end();
  } else {
    const auto& g = *spec.governor;
    w.begin("governor", "dfs");
    w.field("v_ref", g.v_ref);
    w.field("band", g.band);
    w.field("period", g.period);
    w.begin("frequencies", std::to_string(g.frequencies.size()));
    for (double f : g.frequencies) w.bare(f);
    w.end();
    w.end();
  }

  w.begin("mcu");
  w.begin("power");
  const auto& p = spec.mcu.power;
  w.field("v_min", p.v_min);
  w.field("v_on", p.v_on);
  w.field("i_base", p.i_base);
  w.field("i_per_hz_sram", p.i_per_hz_sram);
  w.field("i_per_hz_fram", p.i_per_hz_fram);
  w.field("i_per_hz_nvp", p.i_per_hz_nvp);
  w.field("i_per_hz_nvm_write", p.i_per_hz_nvm_write);
  w.field("i_sleep", p.i_sleep);
  w.field("i_deep_wait", p.i_deep_wait);
  w.field("boot_cycles", static_cast<std::uint64_t>(p.boot_cycles));
  w.field("save_overhead_cycles", static_cast<std::uint64_t>(p.save_overhead_cycles));
  w.field("save_cycles_per_byte", p.save_cycles_per_byte);
  w.field("restore_overhead_cycles",
          static_cast<std::uint64_t>(p.restore_overhead_cycles));
  w.field("restore_cycles_per_byte", p.restore_cycles_per_byte);
  w.field_size("register_file_bytes", p.register_file_bytes);
  w.field("vcc_poll_cycles", static_cast<std::uint64_t>(p.vcc_poll_cycles));
  w.end();
  w.field("initial_frequency", spec.mcu.initial_frequency);
  w.begin("memory_mode", memory_mode_tag(spec.mcu.memory_mode));
  w.end();
  w.field_size("peripheral_file_bytes", spec.mcu.peripheral_file_bytes);
  w.field("peripheral_reinit_cycles",
          static_cast<std::uint64_t>(spec.mcu.peripheral_reinit_cycles));
  w.end();

  w.field("snapshot_peripherals", spec.snapshot_peripherals);

  w.begin("sim");
  w.field("dt", spec.sim.dt);
  w.field("t_end", spec.sim.t_end);
  w.field("node_substeps", spec.sim.node_substeps);
  w.field("stop_on_completion", spec.sim.stop_on_completion);
  w.field("probe_interval", spec.sim.probe_interval);
  w.field("quiescent_fast_path", spec.sim.quiescent_fast_path);
  w.field("macro_stepping", spec.sim.macro_stepping);
  w.field("macro_v_tol", spec.sim.macro_v_tol);
  w.end();
}

SystemSpec read_spec_body(Reader& r) {
  SystemSpec spec;
  spec.source = read_source(r);

  r.begin("rectifier");
  spec.rectifier.kind = parse_rectifier_kind(r.begin_tagged("kind"));
  r.end();
  spec.rectifier.diode_drop = r.number("diode_drop");
  r.end();

  r.begin("harvester");
  spec.harvester.efficiency = r.number("efficiency");
  spec.harvester.v_ceiling = r.number("v_ceiling");
  spec.harvester.i_max = r.number("i_max");
  spec.harvester.v_floor = r.number("v_floor");
  r.end();

  r.begin("storage");
  spec.storage.capacitance = r.number("capacitance");
  spec.storage.initial_voltage = r.number("initial_voltage");
  spec.storage.bleed = r.number("bleed");
  r.end();

  r.begin("workload");
  spec.workload.kind = r.text("kind");
  spec.workload.seed = r.u64("seed");
  r.end();

  spec.policy = read_policy(r);

  const std::string governor_tag(r.begin_tagged("governor"));
  if (governor_tag == "dfs") {
    neutral::McuDfsGovernor::Config g;
    g.v_ref = r.number("v_ref");
    g.band = r.number("band");
    g.period = r.number("period");
    const std::size_t count = parse_u64(r.begin_tagged("frequencies"));
    g.frequencies.clear();
    g.frequencies.reserve(count);
    for (std::size_t i = 0; i < count; ++i) g.frequencies.push_back(r.bare_number());
    r.end();
    spec.governor = std::move(g);
  } else if (governor_tag != "none") {
    throw SpecFormatError("unknown governor tag: '" + governor_tag + "'");
  }
  r.end();

  r.begin("mcu");
  r.begin("power");
  auto& p = spec.mcu.power;
  p.v_min = r.number("v_min");
  p.v_on = r.number("v_on");
  p.i_base = r.number("i_base");
  p.i_per_hz_sram = r.number("i_per_hz_sram");
  p.i_per_hz_fram = r.number("i_per_hz_fram");
  p.i_per_hz_nvp = r.number("i_per_hz_nvp");
  p.i_per_hz_nvm_write = r.number("i_per_hz_nvm_write");
  p.i_sleep = r.number("i_sleep");
  p.i_deep_wait = r.number("i_deep_wait");
  p.boot_cycles = static_cast<Cycles>(r.u64("boot_cycles"));
  p.save_overhead_cycles = static_cast<Cycles>(r.u64("save_overhead_cycles"));
  p.save_cycles_per_byte = r.number("save_cycles_per_byte");
  p.restore_overhead_cycles = static_cast<Cycles>(r.u64("restore_overhead_cycles"));
  p.restore_cycles_per_byte = r.number("restore_cycles_per_byte");
  p.register_file_bytes = r.size_value("register_file_bytes");
  p.vcc_poll_cycles = static_cast<Cycles>(r.u64("vcc_poll_cycles"));
  r.end();
  spec.mcu.initial_frequency = r.number("initial_frequency");
  spec.mcu.memory_mode = parse_memory_mode(r.begin_tagged("memory_mode"));
  r.end();
  spec.mcu.peripheral_file_bytes = r.size_value("peripheral_file_bytes");
  spec.mcu.peripheral_reinit_cycles = static_cast<Cycles>(r.u64("peripheral_reinit_cycles"));
  r.end();

  spec.snapshot_peripherals = r.boolean("snapshot_peripherals");

  r.begin("sim");
  spec.sim.dt = r.number("dt");
  spec.sim.t_end = r.number("t_end");
  spec.sim.node_substeps = r.integer("node_substeps");
  spec.sim.stop_on_completion = r.boolean("stop_on_completion");
  spec.sim.probe_interval = r.number("probe_interval");
  spec.sim.quiescent_fast_path = r.boolean("quiescent_fast_path");
  spec.sim.macro_stepping = r.boolean("macro_stepping");
  spec.sim.macro_v_tol = r.number("macro_v_tol");
  r.end();

  return spec;
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

std::string serialize(const SystemSpec& spec) {
  const std::string reason = non_cacheable_reason(spec);
  if (!reason.empty()) {
    throw SpecFormatError("spec is not serializable — " + reason);
  }

  Writer w;
  w.begin("edc.SystemSpec", "v" + std::to_string(kSpecFormatVersion));
  write_spec_body(w, spec);
  w.end();
  return w.take();
}

SystemSpec parse_spec(const std::string& text) {
  Reader r(text);
  const std::string_view version = r.begin_tagged("edc.SystemSpec");
  if (version != "v" + std::to_string(kSpecFormatVersion)) {
    throw SpecFormatError("unsupported spec format version: '" +
                          std::string(version) + "'");
  }

  SystemSpec spec = read_spec_body(r);
  r.end();
  r.finish();
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

// ---- fleets ----------------------------------------------------------------

std::string non_cacheable_reason(const FleetSpec& fleet) {
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    const std::string reason = non_cacheable_reason(fleet.nodes[i]);
    if (!reason.empty()) {
      return "node " + std::to_string(i) + ": " + reason;
    }
  }
  return {};
}

bool is_cacheable(const FleetSpec& fleet) {
  return non_cacheable_reason(fleet).empty();
}

std::string serialize_fleet(const FleetSpec& fleet) {
  validate_fleet(fleet);
  const std::string reason = non_cacheable_reason(fleet);
  if (!reason.empty()) {
    throw SpecFormatError("fleet is not serializable — " + reason);
  }

  Writer w;
  w.begin("edc.FleetSpec", "v" + std::to_string(kSpecFormatVersion));
  w.begin("nodes", std::to_string(fleet.nodes.size()));
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    w.begin("node", std::to_string(i));
    write_spec_body(w, fleet.nodes[i]);
    w.end();
  }
  w.end();

  if (const auto* rf = std::get_if<SharedRfCoupling>(&fleet.coupling)) {
    w.begin("coupling", "shared_rf");
    w.field("field_power", rf->field.field_power);
    w.field("burst_length", rf->field.burst_length);
    w.field("burst_period", rf->field.burst_period);
    w.field("jitter", rf->field.jitter);
    w.field("seed", rf->seed);
    w.field("horizon", rf->horizon);
    w.field("window_period", rf->window_period);
    w.field("window_duty", rf->window_duty);
    w.begin("gains", std::to_string(rf->gains.size()));
    for (double g : rf->gains) w.bare(g);
    w.end();
    w.begin("phases", std::to_string(rf->phases.size()));
    for (Seconds p : rf->phases) w.bare(p);
    w.end();
    w.end();
  } else {
    w.begin("coupling", "none");
    w.end();
  }

  w.end();
  return w.take();
}

FleetSpec parse_fleet(const std::string& text) {
  Reader r(text);
  const std::string_view version = r.begin_tagged("edc.FleetSpec");
  if (version != "v" + std::to_string(kSpecFormatVersion)) {
    throw SpecFormatError("unsupported fleet format version: '" +
                          std::string(version) + "'");
  }

  FleetSpec fleet;
  const std::size_t node_count = parse_u64(r.begin_tagged("nodes"));
  fleet.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::string_view index = r.begin_tagged("node");
    if (index != std::to_string(i)) {
      throw SpecFormatError("fleet node blocks out of order: expected node " +
                            std::to_string(i) + ", got '" + std::string(index) +
                            "'");
    }
    fleet.nodes.push_back(read_spec_body(r));
    r.end();
  }
  r.end();

  const std::string coupling_tag(r.begin_tagged("coupling"));
  if (coupling_tag == "shared_rf") {
    SharedRfCoupling rf;
    rf.field.field_power = r.number("field_power");
    rf.field.burst_length = r.number("burst_length");
    rf.field.burst_period = r.number("burst_period");
    rf.field.jitter = r.number("jitter");
    rf.seed = r.u64("seed");
    rf.horizon = r.number("horizon");
    rf.window_period = r.number("window_period");
    rf.window_duty = r.number("window_duty");
    const std::size_t gain_count = parse_u64(r.begin_tagged("gains"));
    rf.gains.reserve(gain_count);
    for (std::size_t i = 0; i < gain_count; ++i) rf.gains.push_back(r.bare_number());
    r.end();
    const std::size_t phase_count = parse_u64(r.begin_tagged("phases"));
    rf.phases.reserve(phase_count);
    for (std::size_t i = 0; i < phase_count; ++i) rf.phases.push_back(r.bare_number());
    r.end();
    fleet.coupling = std::move(rf);
  } else if (coupling_tag != "none") {
    throw SpecFormatError("unknown coupling tag: '" + coupling_tag + "'");
  }
  r.end();

  r.end();
  r.finish();
  validate_fleet(fleet);
  return fleet;
}

std::uint64_t fleet_hash(const FleetSpec& fleet) {
  return fnv1a64(serialize_fleet(fleet));
}

}  // namespace edc::spec
