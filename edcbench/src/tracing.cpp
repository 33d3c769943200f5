#include "tracing.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "edc/circuit/rectifier.h"
#include "edc/circuit/supply_node.h"
#include "edc/mcu/mcu.h"
#include "edc/neutral/dfs_governor.h"

namespace edcbench {

std::size_t Tracer::begin(std::string name, std::string family) {
  Span span;
  span.name = std::move(name);
  span.family = std::move(family);
  span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  span.run_id = run_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  Span& span = spans_[id];
  span.end_ns = now_ns();
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].covered_ns +=
        span.end_ns - span.start_ns;
  }
}

void Tracer::call_end(bool useful) {
  const Frame frame = frames_.back();
  frames_.pop_back();
  const std::int64_t duration = now_ns() - frame.start_ns;
  // Calls always run inside the span that opened the simulation.
  Span& owner = spans_[open_.back()];
  CallStats& stats = owner.calls[static_cast<std::size_t>(frame.layer)];
  ++stats.calls;
  stats.useful += useful ? 1 : 0;
  stats.self_ns += duration - frame.child_ns;
  if (frames_.empty()) {
    owner.covered_ns += duration;
  } else {
    frames_.back().child_ns += duration;
  }
}

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "trace_sample", "trace_hint", "circuit_driver",
      "workload_tick", "workload_snapshot", "governor"};
  return kNames[static_cast<std::size_t>(layer)];
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"family\":\""
        << s.family << "\",\"run\":" << s.run_id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << s.self_ns() << ",\"calls\":{";
    bool first = true;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (s.calls[l].calls == 0) continue;
      out << (first ? "" : ",") << '"' << layer_name(static_cast<Layer>(l)) << "\":["
          << s.calls[l].calls << ',' << s.calls[l].self_ns << ']';
      first = false;
    }
    out << "}}\n";
  }
  if (!out.good()) throw std::runtime_error("cannot write '" + path + "'");
}

namespace {

/// RAII bracket around one decorated call.
class CallScope {
 public:
  CallScope(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.call_begin(layer); }
  ~CallScope() { tracer_.call_end(useful_); }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
  void useful(bool value) { useful_ = value; }

 private:
  Tracer& tracer_;
  bool useful_ = false;
};

// ---- forwarding decorators ------------------------------------------------
// Every virtual is forwarded unchanged (the library has no dynamic_cast, so
// the decorated system behaves exactly like the undecorated one); the
// constant getters (series_resistance, batchable, period, name, ...) are
// forwarded untimed.

class TracedVoltageSource final : public edc::trace::VoltageSource {
 public:
  TracedVoltageSource(std::unique_ptr<edc::trace::VoltageSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  edc::Volts open_circuit_voltage(edc::Seconds t) const override {
    const CallScope call(tracer_, Layer::trace_sample);
    return inner_->open_circuit_voltage(t);
  }
  edc::Ohms series_resistance() const override { return inner_->series_resistance(); }
  edc::Seconds bounded_until(edc::Volts floor, edc::Volts ceiling,
                             edc::Seconds t) const override {
    CallScope call(tracer_, Layer::trace_hint);
    const edc::Seconds until = inner_->bounded_until(floor, ceiling, t);
    call.useful(until > t);
    return until;
  }
  edc::Seconds constant_until(edc::Seconds t, edc::Volts* value) const override {
    CallScope call(tracer_, Layer::trace_hint);
    const edc::Seconds until = inner_->constant_until(t, value);
    call.useful(until > t);
    return until;
  }
  LinearCert linear_until(edc::Seconds t, edc::Seconds horizon) const override {
    CallScope call(tracer_, Layer::trace_hint);
    const LinearCert cert = inner_->linear_until(t, horizon);
    call.useful(cert.valid && cert.until > t);
    return cert;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<edc::trace::VoltageSource> inner_;
  Tracer& tracer_;
};

class TracedPowerSource final : public edc::trace::PowerSource {
 public:
  TracedPowerSource(std::unique_ptr<edc::trace::PowerSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  edc::Watts available_power(edc::Seconds t) const override {
    const CallScope call(tracer_, Layer::trace_sample);
    return inner_->available_power(t);
  }
  edc::Seconds dormant_until(edc::Seconds t) const override {
    CallScope call(tracer_, Layer::trace_hint);
    const edc::Seconds until = inner_->dormant_until(t);
    call.useful(until > t);
    return until;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<edc::trace::PowerSource> inner_;
  Tracer& tracer_;
};

class TracedDriver final : public edc::circuit::SupplyDriver {
 public:
  TracedDriver(std::unique_ptr<edc::circuit::SupplyDriver> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  edc::Amps current_into(edc::Volts v_node, edc::Seconds t) const override {
    const CallScope call(tracer_, Layer::circuit_driver);
    return inner_->current_into(v_node, t);
  }
  edc::Seconds quiescent_until(edc::Volts v_floor, edc::Seconds t) const override {
    const CallScope call(tracer_, Layer::circuit_driver);
    return inner_->quiescent_until(v_floor, t);
  }
  edc::circuit::ChargeSpanCert plan_charge_span(edc::Seconds t) const override {
    const CallScope call(tracer_, Layer::circuit_driver);
    return inner_->plan_charge_span(t);
  }
  edc::circuit::RampSpanCert plan_ramp_span(edc::Seconds t,
                                            edc::Seconds horizon) const override {
    const CallScope call(tracer_, Layer::circuit_driver);
    return inner_->plan_ramp_span(t, horizon);
  }
  bool batchable() const noexcept override { return inner_->batchable(); }
  edc::circuit::DriverSample batch_sample(edc::Seconds t) const override {
    const CallScope call(tracer_, Layer::circuit_driver);
    return inner_->batch_sample(t);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<edc::circuit::SupplyDriver> inner_;
  Tracer& tracer_;
};

class TracedProgram final : public edc::workloads::Program {
 public:
  TracedProgram(std::unique_ptr<edc::workloads::Program> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void reset() override { inner_->reset(); }
  edc::Cycles next_tick_cost() const override { return inner_->next_tick_cost(); }
  void run_tick() override {
    const CallScope call(tracer_, Layer::workload_tick);
    inner_->run_tick();
  }
  edc::workloads::Boundary boundary() const override { return inner_->boundary(); }
  bool done() const override { return inner_->done(); }
  double progress() const override { return inner_->progress(); }
  std::uint64_t ticks_done() const override { return inner_->ticks_done(); }
  edc::Cycles total_cycles() const override { return inner_->total_cycles(); }
  std::vector<std::byte> save_state() const override {
    const CallScope call(tracer_, Layer::workload_snapshot);
    return inner_->save_state();
  }
  void restore_state(std::span<const std::byte> state) override {
    const CallScope call(tracer_, Layer::workload_snapshot);
    inner_->restore_state(state);
  }
  std::size_t ram_footprint() const override { return inner_->ram_footprint(); }
  std::uint64_t result_digest() const override { return inner_->result_digest(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<edc::workloads::Program> inner_;
  Tracer& tracer_;
};

class TracedGovernor final : public edc::mcu::FrequencyGovernor {
 public:
  TracedGovernor(std::unique_ptr<edc::mcu::FrequencyGovernor> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void control(edc::mcu::Mcu& mcu, edc::Volts vcc, edc::Seconds t) override {
    const CallScope call(tracer_, Layer::governor);
    inner_->control(mcu, vcc, t);
  }
  edc::Seconds period() const override { return inner_->period(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<edc::mcu::FrequencyGovernor> inner_;
  Tracer& tracer_;
};

}  // namespace

edc::core::EnergyDrivenSystem instantiate_traced(const edc::spec::SystemSpec& spec,
                                                 Tracer& tracer) {
  namespace spec_ns = edc::spec;
  if (!spec_ns::has_source(spec.source) || !(spec.storage.capacitance > 0.0) ||
      spec.storage.initial_voltage < 0.0 || spec.storage.bleed < 0.0) {
    throw std::invalid_argument("traced instantiate: invalid spec");
  }
  edc::core::EnergyDrivenSystem::Parts parts;
  if (spec_ns::is_voltage_source(spec.source)) {
    std::unique_ptr<edc::trace::VoltageSource> source;
    {
      const Tracer::Scope build(tracer, "trace.build");
      source = spec_ns::make_voltage_source(spec.source);
    }
    parts.voltage_source =
        std::make_unique<TracedVoltageSource>(std::move(source), tracer);
    parts.driver = std::make_unique<TracedDriver>(
        std::make_unique<edc::circuit::RectifiedSourceDriver>(*parts.voltage_source,
                                                              spec.rectifier),
        tracer);
  } else {
    std::unique_ptr<edc::trace::PowerSource> source;
    {
      const Tracer::Scope build(tracer, "trace.build");
      source = spec_ns::make_power_source(spec.source);
    }
    parts.power_source = std::make_unique<TracedPowerSource>(std::move(source), tracer);
    parts.driver = std::make_unique<TracedDriver>(
        std::make_unique<edc::circuit::HarvesterPowerDriver>(*parts.power_source,
                                                             spec.harvester),
        tracer);
  }

  parts.node = std::make_unique<edc::circuit::SupplyNode>(spec.storage.capacitance,
                                                          spec.storage.initial_voltage);
  if (spec.storage.bleed > 0.0) parts.node->set_bleed(spec.storage.bleed);

  parts.program =
      std::make_unique<TracedProgram>(spec_ns::make_workload(spec.workload), tracer);

  edc::circuit::SupplyNode* node = parts.node.get();
  const std::function<edc::Farads()> probe = [node] { return node->capacitance(); };
  parts.policy = spec_ns::make_policy(spec.policy, probe, spec.storage.capacitance);

  parts.mcu = std::make_unique<edc::mcu::Mcu>(spec.mcu, *parts.program, *parts.policy);
  parts.mcu->set_peripheral_snapshotting(spec.snapshot_peripherals);
  parts.policy->attach(*parts.mcu);

  if (spec.governor.has_value()) {
    parts.governor = std::make_unique<TracedGovernor>(
        std::make_unique<edc::neutral::McuDfsGovernor>(*spec.governor), tracer);
  }
  parts.sim_config = spec.sim;
  return edc::core::EnergyDrivenSystem(std::move(parts));
}

}  // namespace edcbench
