#include "edc/core/system.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "edc/common/check.h"

namespace edc::core {

EnergyDrivenSystem::EnergyDrivenSystem(Parts parts)
    : voltage_source_(std::move(parts.voltage_source)),
      power_source_(std::move(parts.power_source)),
      driver_(std::move(parts.driver)),
      node_(std::move(parts.node)),
      program_(std::move(parts.program)),
      policy_(std::move(parts.policy)),
      mcu_(std::move(parts.mcu)),
      governor_(std::move(parts.governor)),
      sim_config_(parts.sim_config) {
  EDC_CHECK(driver_ != nullptr, "a supply driver is required");
  EDC_CHECK(node_ != nullptr, "a supply node is required");
  EDC_CHECK(program_ != nullptr, "a program is required");
  EDC_CHECK(policy_ != nullptr, "a policy is required");
  EDC_CHECK(mcu_ != nullptr, "an MCU is required");
}

sim::SimResult EnergyDrivenSystem::run() { return run(sim_config_.t_end); }

sim::SimResult EnergyDrivenSystem::run(Seconds t_end) {
  sim::SimConfig config = sim_config_;
  config.t_end = t_end;
  sim::Simulator simulator(config, *node_, *driver_, *mcu_);
  if (governor_) simulator.set_governor(governor_.get());
  return simulator.run();
}

namespace {

/// Wraps a moved-in component as a one-shot spec factory: the first
/// instantiation consumes it, a second throws (mirrors the historical
/// builder contract "keeps its configuration but not ownership"). The
/// claim is atomic so concurrent instantiations (e.g. the spec landed in a
/// parallel sweep) get a deterministic throw instead of a race.
template <typename T>
std::function<std::unique_ptr<T>()> one_shot_factory(std::unique_ptr<T> component) {
  struct Holder {
    std::unique_ptr<T> component;
    std::atomic<bool> taken{false};
  };
  auto holder = std::make_shared<Holder>();
  holder->component = std::move(component);
  return [holder]() -> std::unique_ptr<T> {
    EDC_CHECK(!holder->taken.exchange(true),
              "moved-in component already consumed by build(); use a spec "
              "factory for repeatable instantiation");
    return std::move(holder->component);
  };
}

}  // namespace

SystemBuilder& SystemBuilder::sine_source(Volts amplitude, Hertz frequency,
                                          Ohms series_resistance) {
  spec_.source = spec::SineSource{amplitude, frequency, 0.0, series_resistance};
  return *this;
}

SystemBuilder& SystemBuilder::dc_source(Volts voltage, Ohms series_resistance) {
  spec_.source = spec::DcSource{voltage, series_resistance};
  return *this;
}

SystemBuilder& SystemBuilder::wind_source(std::uint64_t seed, Seconds horizon) {
  return wind_source(trace::WindTurbineSource::Params{}, seed, horizon);
}

SystemBuilder& SystemBuilder::wind_source(const trace::WindTurbineSource::Params& params,
                                          std::uint64_t seed, Seconds horizon) {
  spec_.source = spec::WindSource{params, seed, horizon};
  return *this;
}

SystemBuilder& SystemBuilder::voltage_source(
    std::unique_ptr<trace::VoltageSource> source, circuit::RectifierParams rectifier) {
  EDC_CHECK(source != nullptr, "source must not be null");
  spec_.source = spec::CustomVoltageSource{one_shot_factory(std::move(source))};
  spec_.rectifier = rectifier;
  return *this;
}

SystemBuilder& SystemBuilder::power_source(std::unique_ptr<trace::PowerSource> source) {
  return power_source(std::move(source), circuit::HarvesterPowerDriver::Params{});
}

SystemBuilder& SystemBuilder::power_source(
    std::unique_ptr<trace::PowerSource> source,
    circuit::HarvesterPowerDriver::Params params) {
  EDC_CHECK(source != nullptr, "source must not be null");
  spec_.source = spec::CustomPowerSource{one_shot_factory(std::move(source))};
  spec_.harvester = params;
  return *this;
}

SystemBuilder& SystemBuilder::capacitance(Farads c) {
  EDC_CHECK(c > 0.0, "capacitance must be positive");
  spec_.storage.capacitance = c;
  return *this;
}

SystemBuilder& SystemBuilder::initial_voltage(Volts v) {
  EDC_CHECK(v >= 0.0, "initial voltage must be non-negative");
  spec_.storage.initial_voltage = v;
  return *this;
}

SystemBuilder& SystemBuilder::bleed(Ohms resistance) {
  EDC_CHECK(resistance >= 0.0, "bleed resistance must be non-negative");
  spec_.storage.bleed = resistance;
  return *this;
}

SystemBuilder& SystemBuilder::workload(const std::string& kind, std::uint64_t seed) {
  const auto kinds = workloads::standard_program_kinds();
  EDC_CHECK(std::find(kinds.begin(), kinds.end(), kind) != kinds.end(),
            "unknown workload kind: " + kind);
  spec_.workload.kind = kind;
  spec_.workload.seed = seed;
  spec_.workload.factory = nullptr;
  return *this;
}

SystemBuilder& SystemBuilder::program(std::unique_ptr<workloads::Program> program) {
  EDC_CHECK(program != nullptr, "program must not be null");
  spec_.workload.kind.clear();
  spec_.workload.factory = one_shot_factory(std::move(program));
  return *this;
}

SystemBuilder& SystemBuilder::policy_none() {
  spec_.policy = spec::NoCheckpoint{};
  return *this;
}

SystemBuilder& SystemBuilder::policy_hibernus(checkpoint::InterruptPolicy::Config config) {
  spec_.policy = spec::Hibernus{config};
  return *this;
}

SystemBuilder& SystemBuilder::policy_hibernus_pp(
    std::optional<checkpoint::HibernusPlusPlusPolicy::PlusConfig> config) {
  spec_.policy = spec::HibernusPlusPlus{std::move(config)};
  return *this;
}

SystemBuilder& SystemBuilder::policy_quickrecall(
    checkpoint::InterruptPolicy::Config config) {
  spec_.policy = spec::QuickRecall{config};
  return *this;
}

SystemBuilder& SystemBuilder::policy_nvp(checkpoint::InterruptPolicy::Config config) {
  spec_.policy = spec::Nvp{config};
  return *this;
}

SystemBuilder& SystemBuilder::policy_mementos(checkpoint::MementosPolicy::Config config) {
  spec_.policy = spec::Mementos{config};
  return *this;
}

SystemBuilder& SystemBuilder::policy_burst(taskmodel::BurstTaskPolicy::Config config) {
  spec_.policy = spec::BurstTask{config};
  return *this;
}

SystemBuilder& SystemBuilder::policy_adaptive_buffer(
    taskmodel::AdaptiveBufferPolicy::Config config) {
  spec_.policy = spec::AdaptiveBuffer{config};
  return *this;
}

SystemBuilder& SystemBuilder::policy(std::unique_ptr<checkpoint::PolicyBase> policy) {
  EDC_CHECK(policy != nullptr, "policy must not be null");
  spec_.policy = spec::CustomPolicy{
      [make = one_shot_factory(std::move(policy))](const std::function<Farads()>&,
                                                   Farads) { return make(); }};
  return *this;
}

SystemBuilder& SystemBuilder::governor_power_neutral(
    neutral::McuDfsGovernor::Config config) {
  spec_.governor = std::move(config);
  return *this;
}

SystemBuilder& SystemBuilder::mcu_params(const mcu::McuParams& params) {
  spec_.mcu = params;
  return *this;
}

SystemBuilder& SystemBuilder::snapshot_peripherals(bool include) {
  spec_.snapshot_peripherals = include;
  return *this;
}

SystemBuilder& SystemBuilder::sim_config(const sim::SimConfig& config) {
  spec_.sim = config;
  return *this;
}

SystemBuilder& SystemBuilder::probe(Seconds interval) {
  EDC_CHECK(interval > 0.0, "probe interval must be positive");
  spec_.sim.probe_interval = interval;
  return *this;
}

EnergyDrivenSystem SystemBuilder::build() { return spec::instantiate(spec_); }

}  // namespace edc::core
