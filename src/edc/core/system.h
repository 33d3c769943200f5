// Public facade: compose a complete energy-driven system in a few lines.
//
// This is the library analogue of the paper's Fig 6 ("include hibernus.h,
// call Hibernus() first"): pick a source, a storage capacitance, a workload
// and a policy; optionally add a power-neutral governor; run.
//
//   auto system = edc::core::SystemBuilder()
//                     .sine_source(3.3, 2.0)          // 2 Hz half-wave sine
//                     .capacitance(47e-6)
//                     .workload("fft")
//                     .policy_hibernus()
//                     .build();
//   auto result = system.run(10.0);
//
// SystemBuilder is a fluent editor over a value-semantic spec::SystemSpec;
// build() delegates to spec::instantiate(). Grab the spec with to_spec() to
// feed the sweep engine (edc/sweep) with the same configuration.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "edc/checkpoint/hibernus_pp.h"
#include "edc/checkpoint/interrupt_policy.h"
#include "edc/checkpoint/mementos.h"
#include "edc/checkpoint/null_policy.h"
#include "edc/checkpoint/policy_base.h"
#include "edc/circuit/rectifier.h"
#include "edc/circuit/supply_node.h"
#include "edc/mcu/mcu.h"
#include "edc/neutral/dfs_governor.h"
#include "edc/sim/simulator.h"
#include "edc/spec/system_spec.h"
#include "edc/taskmodel/burst_policy.h"
#include "edc/trace/power_sources.h"
#include "edc/trace/voltage_sources.h"

namespace edc::core {

/// A fully wired source + front-end + supply node + MCU + policy
/// (+ optional governor) bundle. Move-only; produced by spec::instantiate()
/// (or SystemBuilder::build(), which wraps it).
class EnergyDrivenSystem {
 public:
  /// Owning bundle of wired components. Exactly one of
  /// voltage_source/power_source is set; driver, node, program, policy and
  /// mcu are required; governor is optional.
  struct Parts {
    std::unique_ptr<trace::VoltageSource> voltage_source;
    std::unique_ptr<trace::PowerSource> power_source;
    std::unique_ptr<circuit::SupplyDriver> driver;
    std::unique_ptr<circuit::SupplyNode> node;
    std::unique_ptr<workloads::Program> program;
    std::unique_ptr<checkpoint::PolicyBase> policy;
    std::unique_ptr<mcu::Mcu> mcu;
    std::unique_ptr<mcu::FrequencyGovernor> governor;
    sim::SimConfig sim_config;
  };

  /// Takes ownership of a wired bundle; throws std::invalid_argument if a
  /// required component is missing.
  explicit EnergyDrivenSystem(Parts parts);

  /// Runs the simulation (optionally overriding the configured horizon).
  sim::SimResult run();
  sim::SimResult run(Seconds t_end);

  [[nodiscard]] mcu::Mcu& mcu() noexcept { return *mcu_; }
  [[nodiscard]] circuit::SupplyNode& node() noexcept { return *node_; }
  [[nodiscard]] workloads::Program& program() noexcept { return *program_; }
  [[nodiscard]] checkpoint::PolicyBase& policy() noexcept { return *policy_; }
  [[nodiscard]] const circuit::SupplyDriver& driver() const noexcept { return *driver_; }
  /// Optional power-neutral governor (null when the spec didn't add one).
  [[nodiscard]] mcu::FrequencyGovernor* governor() noexcept { return governor_.get(); }
  /// The simulation configuration the spec carried (the batch kernel wires
  /// its own stepping loop instead of going through run()).
  [[nodiscard]] const sim::SimConfig& sim_config() const noexcept { return sim_config_; }
  [[nodiscard]] std::string policy_name() const { return policy_->name(); }

 private:
  std::unique_ptr<trace::VoltageSource> voltage_source_;
  std::unique_ptr<trace::PowerSource> power_source_;
  std::unique_ptr<circuit::SupplyDriver> driver_;
  std::unique_ptr<circuit::SupplyNode> node_;
  std::unique_ptr<workloads::Program> program_;
  std::unique_ptr<checkpoint::PolicyBase> policy_;
  std::unique_ptr<mcu::Mcu> mcu_;
  std::unique_ptr<mcu::FrequencyGovernor> governor_;
  sim::SimConfig sim_config_;
};

/// Fluent editor over spec::SystemSpec. Fully reusable: kind-based
/// configuration survives build() (moved-in components are one-shot).
class SystemBuilder {
 public:
  SystemBuilder() = default;
  /// Starts from an existing spec (e.g. to tweak a sweep base).
  explicit SystemBuilder(spec::SystemSpec spec) : spec_(std::move(spec)) {}

  // ---- source (exactly one) ------------------------------------------
  /// Half-wave-rectified lab sine (amplitude V, frequency Hz) — the Fig 7
  /// validation source.
  SystemBuilder& sine_source(Volts amplitude, Hertz frequency,
                             Ohms series_resistance = 50.0);
  /// Steady DC supply (bench PSU through the same rectifier path).
  SystemBuilder& dc_source(Volts voltage, Ohms series_resistance = 50.0);
  /// Micro wind turbine (Fig 1a / Fig 8).
  SystemBuilder& wind_source(std::uint64_t seed, Seconds horizon);
  SystemBuilder& wind_source(const trace::WindTurbineSource::Params& params,
                             std::uint64_t seed, Seconds horizon);
  /// Any Thevenin source through a rectifier. The moved-in source is
  /// one-shot: only the next build() may consume it.
  SystemBuilder& voltage_source(std::unique_ptr<trace::VoltageSource> source,
                                circuit::RectifierParams rectifier = {});
  /// Any power-envelope source through a harvester converter (one-shot).
  SystemBuilder& power_source(std::unique_ptr<trace::PowerSource> source);
  SystemBuilder& power_source(std::unique_ptr<trace::PowerSource> source,
                              circuit::HarvesterPowerDriver::Params params);

  // ---- storage ----------------------------------------------------------
  /// Total node capacitance (decoupling + any added storage).
  SystemBuilder& capacitance(Farads c);
  SystemBuilder& initial_voltage(Volts v);
  /// Board leakage in parallel with the node (0 = none); real transient
  /// boards discharge fully between bursts through this path.
  SystemBuilder& bleed(Ohms resistance);

  // ---- workload ----------------------------------------------------------
  /// A standard workload by kind (see workloads::standard_program_kinds()).
  SystemBuilder& workload(const std::string& kind, std::uint64_t seed = 1);
  /// A custom program instance (one-shot; for reusable specs set a
  /// spec::WorkloadSpec::factory instead).
  SystemBuilder& program(std::unique_ptr<workloads::Program> program);

  // ---- policy (exactly one; default hibernus) ---------------------------
  SystemBuilder& policy_none();
  SystemBuilder& policy_hibernus(checkpoint::InterruptPolicy::Config config = {});
  SystemBuilder& policy_hibernus_pp(
      std::optional<checkpoint::HibernusPlusPlusPolicy::PlusConfig> config = {});
  SystemBuilder& policy_quickrecall(checkpoint::InterruptPolicy::Config config = {});
  SystemBuilder& policy_nvp(checkpoint::InterruptPolicy::Config config = {});
  SystemBuilder& policy_mementos(checkpoint::MementosPolicy::Config config = {});
  SystemBuilder& policy_burst(taskmodel::BurstTaskPolicy::Config config = {});
  SystemBuilder& policy_adaptive_buffer(
      taskmodel::AdaptiveBufferPolicy::Config config = {});
  /// Custom policy instance (its attach() configures the MCU; one-shot,
  /// like program()). The built system owns and drives this very instance,
  /// so a pointer the caller kept stays valid for the system's lifetime; a
  /// second build() throws. For sweeps use spec::CustomPolicy with a
  /// factory that returns a fresh policy per call.
  SystemBuilder& policy(std::unique_ptr<checkpoint::PolicyBase> policy);

  // ---- optional power-neutral governor (hibernus-PN) ---------------------
  SystemBuilder& governor_power_neutral(neutral::McuDfsGovernor::Config config = {});

  // ---- MCU / simulation tuning -------------------------------------------
  SystemBuilder& mcu_params(const mcu::McuParams& params);
  /// Include the peripheral configuration file in snapshots (default: pay a
  /// re-initialisation cost after each outage instead). Applied before the
  /// policy computes its Eq 4 thresholds.
  SystemBuilder& snapshot_peripherals(bool include);
  SystemBuilder& sim_config(const sim::SimConfig& config);
  /// Enable waveform probes at the given sampling interval.
  SystemBuilder& probe(Seconds interval);

  /// The value-semantic description accumulated so far (copy it into a
  /// sweep::Grid to explore around this configuration).
  [[nodiscard]] const spec::SystemSpec& to_spec() const noexcept { return spec_; }

  /// Validates and wires everything: spec::instantiate(to_spec()).
  EnergyDrivenSystem build();

 private:
  spec::SystemSpec spec_;
};

}  // namespace edc::core
