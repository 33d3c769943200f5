// Fleet differential suite (ctest label: fleet).
//
// The fleet API's load-bearing promise is that node-count-N adds structure
// without perturbation. A fleet runs one way, Runner::run(fleet_grid(fleet)):
// an N=1 uncoupled fleet is *bit-identical* to the scalar simulator
// (asserted on the canonical result serialization, which covers the full
// SimResult), row i of any fleet equals a standalone run of the lowered
// node spec, coupling lowers to ordinary serializable per-node specs, and
// a warm rerun of a cached 3-node shared-RF fleet simulates zero points
// and replays byte-identical rows. The CoupledRfFieldSource that realizes
// the shared-RF coupling is held to the PowerSource quiet-claim contract:
// dormant_until may only name instants the gated field really is dead.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "edc/sim/result_io.h"
#include "edc/spec/fleet_spec.h"
#include "edc/spec/serialize.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/fleet.h"
#include "edc/sweep/runner.h"
#include "edc/trace/power_sources.h"
#include "edc/trace/waveform.h"

namespace edc::spec {
namespace {

// --------------------------------------------- CoupledRfFieldSource -----

trace::RfFieldSource::Params test_field() {
  trace::RfFieldSource::Params params;
  params.field_power = 1e-3;
  params.burst_length = 0.5;
  params.burst_period = 1.5;
  params.jitter = 0.2;
  return params;
}

TEST(CoupledRfField, GainScalesTheSharedField) {
  const auto params = test_field();
  const trace::RfFieldSource field(params, 42, 10.0);
  // Always-open window (period 0): the coupled source is gain x field.
  const trace::CoupledRfFieldSource coupled(params, 42, 10.0, 0.25, 0.0, 1.0,
                                            0.0);
  for (int i = 0; i <= 1000; ++i) {
    const Seconds t = i * 0.01;
    EXPECT_DOUBLE_EQ(coupled.available_power(t), 0.25 * field.available_power(t))
        << "at t=" << t;
  }
}

TEST(CoupledRfField, WindowGatesTheField) {
  const auto params = test_field();
  const trace::CoupledRfFieldSource coupled(params, 42, 10.0, 1.0, 2.0, 0.5,
                                            0.25);
  const trace::RfFieldSource field(params, 42, 10.0);
  for (int i = 0; i <= 1000; ++i) {
    const Seconds t = i * 0.01;
    if (coupled.window_open(t)) {
      EXPECT_DOUBLE_EQ(coupled.available_power(t), field.available_power(t));
    } else {
      EXPECT_DOUBLE_EQ(coupled.available_power(t), 0.0);
    }
  }
  // The 50%-duty window starting at phase 0.25 really closes sometimes.
  EXPECT_TRUE(coupled.window_open(0.3));
  EXPECT_FALSE(coupled.window_open(1.5));
}

TEST(CoupledRfField, DormantUntilClaimsOnlyDeadSpans) {
  // The PowerSource contract: dormant_until(t) > t may only be returned
  // when the source is zero on the whole claimed span. Sample the gated
  // field densely and audit every claim.
  const auto params = test_field();
  const trace::CoupledRfFieldSource coupled(params, 7, 8.0, 0.8, 1.7, 0.4,
                                            0.3);
  const Seconds dt = 1e-3;
  for (int i = 0; i < 8000; ++i) {
    const Seconds t = i * dt;
    if (coupled.available_power(t) > 0.0) continue;
    const Seconds until = coupled.dormant_until(t);
    ASSERT_GE(until, t);
    const Seconds end = std::min(until, 8.0);
    for (Seconds s = t; s < end; s += dt) {
      ASSERT_EQ(coupled.available_power(s), 0.0)
          << "dormant_until(" << t << ") = " << until
          << " over-claims: field live at " << s;
    }
  }
}

TEST(CoupledRfField, ZeroGainIsNeverActive) {
  const trace::CoupledRfFieldSource coupled(test_field(), 1, 5.0, 0.0, 0.0,
                                            1.0, 0.0);
  EXPECT_EQ(coupled.available_power(1.0), 0.0);
  EXPECT_EQ(coupled.dormant_until(0.0), trace::kNeverActive);
}

// ------------------------------------------------- validation errors -----

FleetSpec coupled_fleet(std::size_t n) {
  SystemSpec node;
  node.workload.kind = "crc";
  node.sim.t_end = 0.4;
  FleetSpec fleet;
  fleet.nodes.assign(n, node);
  SharedRfCoupling rf;
  rf.field = test_field();
  rf.horizon = 0.4;
  rf.gains.assign(n, 1.0);
  fleet.coupling = rf;
  return fleet;
}

TEST(FleetValidation, RejectsIllFormedFleets) {
  EXPECT_THROW(validate_fleet(FleetSpec{}), std::invalid_argument);

  // One gain per node, non-negative.
  FleetSpec fleet = coupled_fleet(3);
  std::get<SharedRfCoupling>(fleet.coupling).gains.resize(2);
  EXPECT_THROW(validate_fleet(fleet), std::invalid_argument);
  fleet = coupled_fleet(3);
  std::get<SharedRfCoupling>(fleet.coupling).gains[1] = -0.5;
  EXPECT_THROW(validate_fleet(fleet), std::invalid_argument);

  // Phases empty or one per node.
  fleet = coupled_fleet(3);
  std::get<SharedRfCoupling>(fleet.coupling).phases = {0.0, 1.0};
  EXPECT_THROW(validate_fleet(fleet), std::invalid_argument);

  // Window duty in (0, 1] once a period is set.
  fleet = coupled_fleet(2);
  std::get<SharedRfCoupling>(fleet.coupling).window_period = 1.0;
  std::get<SharedRfCoupling>(fleet.coupling).window_duty = 0.0;
  EXPECT_THROW(validate_fleet(fleet), std::invalid_argument);

  // Coupled nodes must leave their source to the coupling.
  fleet = coupled_fleet(2);
  fleet.nodes[1].source = SineSource{3.3, 5.0, 0.0, 50.0};
  EXPECT_THROW(validate_fleet(fleet), std::invalid_argument);

  // Coupled nodes must agree on the shared dt lattice.
  fleet = coupled_fleet(2);
  fleet.nodes[1].sim.t_end = 0.5;
  EXPECT_THROW(validate_fleet(fleet), std::invalid_argument);

  EXPECT_NO_THROW(validate_fleet(coupled_fleet(3)));

  // The grid adapter validates too.
  EXPECT_THROW(sweep::fleet_grid(FleetSpec{}), std::invalid_argument);
  EXPECT_THROW(sweep::fleet_grid(fleet), std::invalid_argument);
}

TEST(FleetLowering, SubstitutesTheCoupledSource) {
  FleetSpec fleet = coupled_fleet(3);
  auto& rf = std::get<SharedRfCoupling>(fleet.coupling);
  rf.gains = {1.0, 0.5, 0.25};
  rf.window_period = 1.0;
  rf.window_duty = 0.5;
  rf.phases = {0.0, 0.25, 0.5};

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const SystemSpec lowered = fleet_node_spec(fleet, i);
    const auto* source = std::get_if<CoupledRfPower>(&lowered.source);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->gain, rf.gains[i]);
    EXPECT_EQ(source->window_phase, rf.phases[i]);
    EXPECT_EQ(source->seed, rf.seed);
  }
  EXPECT_THROW(fleet_node_spec(fleet, 3), std::invalid_argument);
}

TEST(FleetLowering, UncoupledLoweringIsTheIdentity) {
  SystemSpec node;
  node.source = SineSource{3.3, 5.0, 0.0, 50.0};
  node.workload.kind = "crc";
  node.sim.t_end = 0.4;
  FleetSpec fleet;
  fleet.nodes = {node};
  EXPECT_EQ(serialize(fleet_node_spec(fleet, 0)), serialize(node));
}

// --------------------------------- N=1 bit-identity vs the scalar path -----

/// Canonical result bytes of each row, for whole-fleet comparisons.
std::vector<std::string> row_bytes(const std::vector<sim::SimResult>& rows) {
  std::vector<std::string> bytes;
  bytes.reserve(rows.size());
  for (const sim::SimResult& row : rows) bytes.push_back(sim::serialize_result(row));
  return bytes;
}

/// The one-thread runner the bit-identity checks run fleets through.
sweep::Runner serial_runner() {
  sweep::RunnerOptions options;
  options.threads = 1;
  return sweep::Runner(options);
}

/// Runs `node` standalone through the scalar simulator and as a 1-node
/// uncoupled fleet grid through the Runner, asserting byte equality of the
/// canonical result serialization (full SimResult: ledger, metrics, NVM
/// counters, transitions, probe waveforms).
void expect_scalar_identity(SystemSpec node) {
  node.sim.t_end = 0.4;
  node.storage.bleed = 20000.0;
  node.sim.probe_interval = 0.01;

  const sim::SimResult scalar = instantiate(node).run();

  FleetSpec fleet;
  fleet.nodes = {node};
  const auto rows = serial_runner().run(sweep::fleet_grid(fleet));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(sim::serialize_result(rows[0]), sim::serialize_result(scalar));
}

SystemSpec crc_node() {
  SystemSpec node;
  node.workload.kind = "crc";
  node.workload.seed = 11;
  node.policy = Hibernus{};
  return node;
}

TEST(FleetScalarIdentity, SineFamily) {
  SystemSpec node = crc_node();
  node.source = SineSource{3.3, 5.0, 0.0, 50.0};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, DcFamily) {
  SystemSpec node = crc_node();
  node.source = DcSource{3.3, 50.0};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, SquareFamily) {
  SystemSpec node = crc_node();
  node.source = SquareSource{3.3, 10.0, 0.5, 0.0, 50.0};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, WindFamily) {
  SystemSpec node = crc_node();
  node.source = WindSource{{}, 3, 1.0};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, KineticFamily) {
  SystemSpec node = crc_node();
  node.source = KineticSource{{}, 5, 1.0};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, VoltageTraceFamily) {
  SystemSpec node = crc_node();
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) samples.push_back(i % 10 < 6 ? 3.3 : 0.0);
  node.source = VoltageTraceSource{trace::Waveform(0.0, 0.01, samples), 50.0,
                                   "fixture"};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, ConstantPowerFamily) {
  SystemSpec node = crc_node();
  node.source = ConstantPower{2e-3};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, MarkovPowerFamily) {
  SystemSpec node = crc_node();
  node.source = MarkovPower{4e-3, 0.05, 0.05, 11, 1.0};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, RfFieldFamily) {
  SystemSpec node = crc_node();
  node.source = RfFieldPower{test_field(), 2, 1.0};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, CoupledRfFamily) {
  // The lowering target itself is an ordinary source family: a 1-node
  // *standalone* spec carrying CoupledRfPower behaves identically through
  // the fleet wrapper.
  SystemSpec node = crc_node();
  CoupledRfPower source;
  source.field = test_field();
  source.seed = 9;
  source.horizon = 1.0;
  source.gain = 0.7;
  source.window_period = 0.3;
  source.window_duty = 0.5;
  node.source = source;
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, IndoorPvFamily) {
  SystemSpec node = crc_node();
  node.source = IndoorPvPower{{}, 4, 1};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, SolarFamily) {
  SystemSpec node = crc_node();
  node.source = SolarPower{{}, 6, 1};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, PowerTraceFamily) {
  SystemSpec node = crc_node();
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) samples.push_back(i % 7 < 4 ? 3e-3 : 0.0);
  node.source = PowerTraceSource{trace::Waveform(0.0, 0.01, samples), "ptrace"};
  expect_scalar_identity(node);
}

SystemSpec sine_node() {
  SystemSpec node;
  node.source = SineSource{3.3, 5.0, 0.0, 50.0};
  node.workload.kind = "crc";
  node.workload.seed = 11;
  return node;
}

TEST(FleetScalarIdentity, NoCheckpointPolicy) {
  SystemSpec node = sine_node();
  node.policy = NoCheckpoint{};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, HibernusPolicy) {
  SystemSpec node = sine_node();
  node.policy = Hibernus{};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, HibernusPlusPlusPolicy) {
  SystemSpec node = sine_node();
  node.policy = HibernusPlusPlus{};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, QuickRecallPolicy) {
  SystemSpec node = sine_node();
  node.policy = QuickRecall{};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, NvpPolicy) {
  SystemSpec node = sine_node();
  node.policy = Nvp{};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, MementosPolicy) {
  SystemSpec node = sine_node();
  node.policy = Mementos{};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, BurstTaskPolicy) {
  SystemSpec node = sine_node();
  node.workload.kind = "sense";
  node.policy = BurstTask{};
  expect_scalar_identity(node);
}

TEST(FleetScalarIdentity, AdaptiveBufferPolicy) {
  SystemSpec node = sine_node();
  node.workload.kind = "sense";
  taskmodel::AdaptiveBufferPolicy::Config config;
  config.task_energy = 30e-6;
  config.capacitance = 0.0;  // filled with the node capacitance
  node.policy = AdaptiveBuffer{config};
  expect_scalar_identity(node);
}

// -------------------------------------------- fleet runs and the cache -----

// Row i of the fleet grid is node i: its spec is the lowered node spec and
// its bytes equal a standalone run of that spec.
TEST(FleetRun, GridRowsEqualStandaloneNodeRuns) {
  const FleetSpec fleet = example_rf_fleet(3);
  const sweep::Grid grid = sweep::fleet_grid(fleet);
  ASSERT_EQ(grid.size(), 3u);
  const auto rows = serial_runner().run(grid);
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const SystemSpec lowered = fleet_node_spec(fleet, i);
    EXPECT_EQ(grid.point(i).labels, std::vector<std::string>{"node" + std::to_string(i)});
    EXPECT_EQ(serialize(grid.point(i).spec), serialize(lowered));
    EXPECT_EQ(sim::serialize_result(rows[i]),
              sim::serialize_result(instantiate(lowered).run()));
  }
  // Distinct gains/windows really differentiate the nodes.
  EXPECT_NE(sim::serialize_result(rows[0]), sim::serialize_result(rows[1]));
  EXPECT_GT(rows[0].harvested, rows[1].harvested);
}

TEST(FleetRun, RepeatRunsAreDeterministic) {
  const sweep::Grid grid = sweep::fleet_grid(example_rf_fleet(2));
  const sweep::Runner runner;
  EXPECT_EQ(row_bytes(runner.run(grid)), row_bytes(runner.run(grid)));
}

TEST(FleetRun, ColdWarmCacheRoundTrip) {
  const FleetSpec fleet = example_rf_fleet(3);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "edc_fleet_cache_test";
  std::filesystem::remove_all(dir);

  sweep::Cache cache(dir);
  sweep::RunnerOptions options;
  options.cache = &cache;
  const sweep::Runner runner(options);

  const sweep::Grid grid = sweep::fleet_grid(fleet);

  sweep::RunReport cold_report;
  const auto cold = runner.run(grid, &cold_report);
  EXPECT_EQ(cold_report.fresh_count(), 3u);
  EXPECT_EQ(cold_report.warm_count(), 0u);
  // The example fleet is sized so every node completes its workload.
  EXPECT_EQ(std::count_if(cold.begin(), cold.end(),
                          [](const sim::SimResult& node) { return node.mcu.completed; }),
            3);

  sweep::RunReport warm_report;
  const auto warm = runner.run(grid, &warm_report);
  EXPECT_EQ(warm_report.fresh_count(), 0u);
  EXPECT_EQ(warm_report.warm_count(), 3u);

  // Warm rows replay the cold bytes exactly.
  EXPECT_EQ(row_bytes(warm), row_bytes(cold));

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace edc::spec
