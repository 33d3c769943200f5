// Determinism lock-down for the canonical SystemSpec serialization
// (edc/spec/serialize): byte-identical round-trips for every spec variant,
// loud failures on unknown/future fields, run-to-run stable hashes pinned
// by a golden file, and the non_cacheable opt-out for opaque callbacks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "edc/checkpoint/null_policy.h"
#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/grid.h"
#include "edc/workloads/program.h"

namespace {

using namespace edc;

// One deterministically-constructed spec per serializable variant, with
// non-default values so every field actually round-trips. Do NOT change
// existing entries lightly: their hashes are pinned in
// tests/golden/spec_hashes.txt, and a change there means the cache format
// version must be bumped (see serialize.h versioning policy).
struct NamedSpec {
  std::string name;
  spec::SystemSpec spec;
};

spec::SystemSpec base_spec() {
  spec::SystemSpec s;
  s.source = spec::DcSource{3.1, 47.0};
  s.storage.capacitance = 33e-6;
  s.storage.initial_voltage = 0.5;
  s.storage.bleed = 56000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = 7;
  s.sim.t_end = 1.25;
  return s;
}

trace::Waveform fixture_wave() {
  return trace::Waveform(0.25, 0.5, {0.0, 1.5, 3.25, 2.125, 0.375});
}

std::vector<NamedSpec> covering_specs() {
  std::vector<NamedSpec> specs;

  {
    NamedSpec n{"sine-hibernus", base_spec()};
    n.spec.source = spec::SineSource{3.3, 4.5, 0.25, 51.0};
    checkpoint::InterruptPolicy::Config c;
    c.capacitance = 20e-6;
    c.margin = 1.75;
    c.restore_headroom = 0.35;
    n.spec.policy = spec::Hibernus{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"dc-nocheckpoint", base_spec()};
    n.spec.policy = spec::NoCheckpoint{};
    n.spec.snapshot_peripherals = true;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"square-mementos-timer", base_spec()};
    n.spec.source = spec::SquareSource{3.2, 12.5, 0.375, 0.125, 49.0};
    checkpoint::MementosPolicy::Config c;
    c.mode = checkpoint::MementosPolicy::Mode::timer;
    c.v_threshold = 2.375;
    c.timer_interval = 7.5e-3;
    c.poll_stride = 3;
    n.spec.policy = spec::Mementos{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"wind-hibernuspp-default", base_spec()};
    spec::WindSource w;
    w.params.peak_voltage = 5.5;
    w.params.gust_period = 8.25;
    w.seed = 99;
    w.horizon = 25.0;
    n.spec.source = w;
    n.spec.policy = spec::HibernusPlusPlus{};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"kinetic-hibernuspp-set", base_spec()};
    spec::KineticSource k;
    k.params.impulse_peak = 4.25;
    k.params.resonance = 47.5;
    k.seed = 3;
    k.horizon = 12.0;
    n.spec.source = k;
    checkpoint::HibernusPlusPlusPolicy::PlusConfig c;
    c.measurement_error = 0.045;
    c.calibration_cycles = 35000;
    c.initial_margin = 1.25;
    c.restore_headroom = 0.4;
    c.seed = 1234;
    n.spec.policy = spec::HibernusPlusPlus{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"voltage-trace-quickrecall", base_spec()};
    spec::VoltageTraceSource t;
    t.wave = fixture_wave();
    t.series_resistance = 75.0;
    t.label = "bench \"A\",\ttrace";  // exercises string escaping
    n.spec.source = t;
    checkpoint::InterruptPolicy::Config c;
    c.margin = 2.5;
    n.spec.policy = spec::QuickRecall{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"constant-power-nvp", base_spec()};
    n.spec.source = spec::ConstantPower{2.5e-3};
    checkpoint::InterruptPolicy::Config c;
    c.v_hibernate = 2.25;
    c.v_restore = 2.75;
    n.spec.policy = spec::Nvp{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"markov-burst", base_spec()};
    n.spec.source = spec::MarkovPower{4e-3, 0.125, 0.25, 21, 30.0};
    taskmodel::BurstTaskPolicy::Config c;
    c.task_energy = 65e-6;
    c.capacitance = 150e-6;
    c.margin = 1.4;
    n.spec.policy = spec::BurstTask{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"rf-governed", base_spec()};
    spec::RfFieldPower r;
    r.params.field_power = 300e-6;
    r.params.burst_length = 1.5;
    r.params.burst_period = 5.5;
    r.params.jitter = 0.125;
    r.seed = 11;
    r.horizon = 45.0;
    n.spec.source = r;
    neutral::McuDfsGovernor::Config g;
    g.v_ref = 2.85;
    g.band = 0.125;
    g.period = 1.25e-3;
    g.frequencies = {1e6, 4e6, 16e6};
    n.spec.governor = g;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"indoor-pv", base_spec()};
    spec::IndoorPvPower p;
    p.params.night_current_ua = 280.0;
    p.params.day_current_ua = 430.5;
    p.params.noise_ua = 3.5;
    p.seed = 5;
    p.days = 2;
    n.spec.source = p;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"solar-full-wave", base_spec()};
    spec::SolarPower p;
    p.params.panel_peak = 65e-3;
    p.params.cloud_depth = 0.625;
    p.seed = 8;
    p.days = 3;
    n.spec.source = p;
    n.spec.rectifier.kind = circuit::RectifierKind::full_wave;
    n.spec.rectifier.diode_drop = 0.3;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"power-trace-tuned-mcu", base_spec()};
    spec::PowerTraceSource p;
    p.wave = fixture_wave();
    p.label = "office_pv.csv";
    n.spec.source = p;
    n.spec.harvester.efficiency = 0.85;
    n.spec.harvester.v_ceiling = 4.75;
    n.spec.harvester.i_max = 0.25;
    n.spec.harvester.v_floor = 0.35;
    n.spec.mcu.power.v_min = 1.9;
    n.spec.mcu.power.i_base = 110e-6;
    n.spec.mcu.power.boot_cycles = 2500;
    n.spec.mcu.power.register_file_bytes = 128;
    n.spec.mcu.initial_frequency = 16e6;
    n.spec.mcu.memory_mode = mcu::MemoryMode::unified_fram;
    n.spec.mcu.peripheral_file_bytes = 96;
    n.spec.mcu.peripheral_reinit_cycles = 15000;
    n.spec.sim.dt = 5e-6;
    n.spec.sim.node_substeps = 8;
    n.spec.sim.stop_on_completion = false;
    n.spec.sim.probe_interval = 1e-3;
    n.spec.sim.quiescent_fast_path = false;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"unspecified-source", base_spec()};
    n.spec.source = std::monostate{};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"coupled-rf-windowed", base_spec()};
    spec::CoupledRfPower c;
    c.field.field_power = 1.5e-3;
    c.field.burst_length = 0.75;
    c.field.burst_period = 2.25;
    c.field.jitter = 0.1875;
    c.seed = 17;
    c.horizon = 15.0;
    c.gain = 0.375;
    c.window_period = 3.0;
    c.window_duty = 0.25;
    c.window_phase = 1.5;
    n.spec.source = c;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"sine-adaptive-buffer", base_spec()};
    n.spec.source = spec::SineSource{3.3, 4.5, 0.25, 51.0};
    n.spec.workload.kind = "sense";
    taskmodel::AdaptiveBufferPolicy::Config c;
    c.task_energy = 35e-6;
    c.capacitance = 180e-6;
    c.margin = 1.5;
    c.ewma_alpha = 0.375;
    c.rate_reference = 2.5e-4;
    c.min_buffer = 2;
    c.max_buffer = 6;
    n.spec.policy = spec::AdaptiveBuffer{c};
    specs.push_back(std::move(n));
  }

  return specs;
}

// Result-side pins: a hand-built SimResult that sets every field (no
// simulator output, so engine changes never move these bytes), with two
// transitions and two probes, one of them a single sample with dt 0.
sim::SimResult pinned_result() {
  sim::SimResult r;
  r.end_time = 1.25;
  r.harvested = 3.0517578125e-05;
  r.consumed = 2.5e-05;
  r.dissipated = 1.0e-7;
  r.stored_initial = 1.5e-06;
  r.stored_final = 4.0517578125e-06;
  r.nvm_torn_writes = 3;
  r.nvm_commits = 17;
  r.fine_steps = 123456;
  r.span_steps = 18446744073709551615ull;
  r.spans = 42;
  auto& m = r.mcu;
  m.time_off = 0.5;
  m.time_boot = 0.0625;
  m.time_active = 0.3;
  m.time_saving = 0.001;
  m.time_restoring = 0.002;
  m.time_sleep = 0.125;
  m.time_wait = 0.25;
  m.time_done = 0.0078125;
  m.cycles_active = 2400000.5;
  m.forward_cycles = 2000000.0;
  m.reexecuted_cycles = 400000.5;
  m.poll_cycles = 1600.0;
  m.boots = 4;
  m.brownouts = 3;
  m.saves_started = 5;
  m.saves_completed = 4;
  m.restores = 2;
  m.direct_resumes = 1;
  m.peripheral_reinits = 6;
  m.energy_active = 2.0e-05;
  m.energy_save = 1.25e-06;
  m.energy_restore = 7.5e-07;
  m.energy_sleep = 3.0e-08;
  m.energy_other = 1.0e-09;
  m.completed = true;
  m.completion_time = 1.1875;
  r.transitions = {{0.015625, mcu::McuState::off, mcu::McuState::boot, 2.0009765625},
                   {0.5, mcu::McuState::saving, mcu::McuState::sleep, 2.25}};
  r.probes.add("vcc", trace::Waveform(1e-05, 0.25, {0.0, 1.75, 2.5}));
  r.probes.add("state", trace::Waveform(0.125, 0.0, {3.0}));
  return r;
}

TEST(SpecSerial, PinnedResultRowsRoundTripByteIdentically) {
  const std::string row = sim::serialize_result(pinned_result());
  EXPECT_EQ(sim::serialize_result(sim::parse_result(row)), row);
}

TEST(SpecSerial, RoundTripIsByteIdentical) {
  for (const NamedSpec& named : covering_specs()) {
    SCOPED_TRACE(named.name);
    const std::string text = spec::document(named.spec);
    const spec::SystemSpec reparsed = spec::parse_spec(text);
    EXPECT_EQ(text, spec::document(reparsed));
    EXPECT_EQ(spec::serialize(reparsed), spec::serialize(named.spec));
    EXPECT_EQ(spec::spec_hash(named.spec), spec::spec_hash(reparsed));
  }
}

bool has_trace(const spec::SystemSpec& s) {
  return std::holds_alternative<spec::VoltageTraceSource>(s.source) ||
         std::holds_alternative<spec::PowerTraceSource>(s.source);
}

TEST(SpecSerial, DocumentEqualsKeyWithoutATrace) {
  std::size_t traced = 0;
  for (const NamedSpec& named : covering_specs()) {
    SCOPED_TRACE(named.name);
    if (has_trace(named.spec)) {
      ++traced;
      EXPECT_NE(spec::document(named.spec), spec::serialize(named.spec));
    } else {
      EXPECT_EQ(spec::document(named.spec), spec::serialize(named.spec));
    }
  }
  EXPECT_EQ(traced, 2u);
}

TEST(SpecSerial, KeyFormOfATraceIsNotADocument) {
  for (const NamedSpec& named : covering_specs()) {
    if (!has_trace(named.spec)) continue;
    SCOPED_TRACE(named.name);
    try {
      (void)spec::parse_spec(spec::serialize(named.spec));
      ADD_FAILURE() << "a key naming its trace by digest parsed";
    } catch (const spec::SpecFormatError& error) {
      EXPECT_NE(std::string(error.what()).find("a cache key is not a spec document"),
                std::string::npos)
          << error.what();
    }
  }
}

// A recorded trace enters the key by count and digest, so the key of a
// 400,001-sample trace is as small as any other, and grid points copy the
// trace without copying its samples.
TEST(SpecSerial, KeyNamesALongTraceByItsDigest) {
  spec::SystemSpec s = base_spec();
  const trace::Waveform wave = trace::Waveform::sample(
      [](Seconds t) { return 3.0 + std::sin(25.0 * t); }, 0.0, 4.0, 400001);
  s.source = spec::VoltageTraceSource{wave, 50.0, "gust.csv"};

  const std::string key = spec::serialize(s);
  EXPECT_LT(key.size(), 2048u);
  EXPECT_EQ(key.find("samples"), std::string::npos);
  EXPECT_NE(key.find("\n      count 400001\n      sha256 " + wave.digest() + "\n"),
            std::string::npos)
      << key;
  EXPECT_GT(spec::document(s).size(), 400001u);

  sweep::Grid grid(s);
  grid.capacitance_axis({10e-6, 22e-6});
  const auto samples_of = [](const sweep::Point& point) {
    return std::get<spec::VoltageTraceSource>(point.spec.source).wave.samples().data();
  };
  EXPECT_EQ(samples_of(grid.point(0)), samples_of(grid.point(1)));
  EXPECT_EQ(samples_of(grid.point(0)), wave.samples().data());
}

TEST(SpecSerial, SerializationIsDeterministicWithinRun) {
  for (const NamedSpec& named : covering_specs()) {
    SCOPED_TRACE(named.name);
    EXPECT_EQ(spec::serialize(named.spec), spec::serialize(named.spec));
  }
}

TEST(SpecSerial, EveryCoveringSpecHashesDistinctly) {
  std::map<std::uint64_t, std::string> seen;
  for (const NamedSpec& named : covering_specs()) {
    const std::uint64_t hash = spec::spec_hash(named.spec);
    const auto [it, inserted] = seen.emplace(hash, named.name);
    EXPECT_TRUE(inserted) << named.name << " collides with " << it->second;
  }
}

TEST(SpecSerial, MutatingAnyKnobChangesTheHash) {
  const spec::SystemSpec base = base_spec();
  const std::uint64_t base_hash = spec::spec_hash(base);

  const std::vector<std::pair<std::string, std::function<void(spec::SystemSpec&)>>>
      mutations = {
          {"storage.capacitance", [](auto& s) { s.storage.capacitance *= 2; }},
          {"storage.bleed", [](auto& s) { s.storage.bleed += 1000; }},
          {"workload.seed", [](auto& s) { s.workload.seed += 1; }},
          {"workload.kind", [](auto& s) { s.workload.kind = "crc"; }},
          {"source voltage", [](auto& s) { s.source = spec::DcSource{3.2, 47.0}; }},
          {"policy margin",
           [](auto& s) {
             checkpoint::InterruptPolicy::Config c;
             c.margin = 9.0;
             s.policy = spec::Hibernus{c};
           }},
          {"mcu.power.i_base", [](auto& s) { s.mcu.power.i_base *= 1.5; }},
          {"sim.dt", [](auto& s) { s.sim.dt *= 0.5; }},
          {"sim.t_end", [](auto& s) { s.sim.t_end += 1; }},
          {"sim.quiescent_fast_path",
           [](auto& s) { s.sim.quiescent_fast_path = false; }},
          {"snapshot_peripherals", [](auto& s) { s.snapshot_peripherals = true; }},
      };
  for (const auto& [what, mutate] : mutations) {
    SCOPED_TRACE(what);
    spec::SystemSpec mutated = base;
    mutate(mutated);
    EXPECT_NE(spec::spec_hash(mutated), base_hash);
  }
}

TEST(SpecSerial, UnknownFieldFailsLoudly) {
  const std::string text = spec::serialize(base_spec());

  // An extra (future) field anywhere must be rejected, not skipped.
  const std::string marker = "  capacitance ";
  const std::size_t at = text.find(marker);
  ASSERT_NE(at, std::string::npos);
  std::string with_unknown = text;
  with_unknown.insert(at, "  esr_ohms 0.125\n");
  EXPECT_THROW((void)spec::parse_spec(with_unknown), spec::SpecFormatError);

  // Trailing garbage after a complete spec.
  EXPECT_THROW((void)spec::parse_spec(text + "extra 1\n"), spec::SpecFormatError);

  // Truncation (drop the last line).
  const std::size_t last_newline = text.rfind('\n', text.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  EXPECT_THROW((void)spec::parse_spec(text.substr(0, last_newline + 1)),
               spec::SpecFormatError);

  // Missing trailing newline.
  EXPECT_THROW((void)spec::parse_spec(text.substr(0, text.size() - 1)),
               spec::SpecFormatError);

  // Future format version.
  std::string future = text;
  const std::string version_line =
      "edc.SystemSpec v" + std::to_string(spec::kSpecFormatVersion);
  ASSERT_EQ(future.rfind(version_line, 0), 0u);
  future.replace(0, version_line.size(), "edc.SystemSpec v999");
  EXPECT_THROW((void)spec::parse_spec(future), spec::SpecFormatError);

  // Empty input.
  EXPECT_THROW((void)spec::parse_spec(""), spec::SpecFormatError);
}

TEST(SpecSerial, MalformedValuesFailLoudly) {
  const std::string text = spec::serialize(base_spec());
  const std::string needle = "capacitance 3.3e-05";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << text;

  std::string bad = text;
  bad.replace(at, needle.size(), "capacitance 3.3e-05x");
  EXPECT_THROW((void)spec::parse_spec(bad), spec::SpecFormatError);

  bad = text;
  bad.replace(at, needle.size(), "capacitance");
  EXPECT_THROW((void)spec::parse_spec(bad), spec::SpecFormatError);
}

TEST(SpecSerial, OpaqueCallbacksAreNonCacheable) {
  {
    spec::SystemSpec s = base_spec();
    s.source = spec::CustomVoltageSource{[] {
      return std::make_unique<trace::SineVoltageSource>(3.3, 2.0);
    }};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("source"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
    EXPECT_THROW((void)spec::spec_hash(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    s.source = spec::CustomPowerSource{[] {
      return std::make_unique<trace::ConstantPowerSource>(1e-3);
    }};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    s.workload.factory = [] { return workloads::make_program("fft-small", 1); };
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("workload"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    s.policy = spec::CustomPolicy{
        [](const std::function<Farads()>&, Farads) {
          return std::unique_ptr<checkpoint::PolicyBase>(
              std::make_unique<checkpoint::NullPolicy>());
        }};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("policy"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    checkpoint::HibernusPlusPlusPolicy::PlusConfig c;
    c.capacitance_probe = [] { return 10e-6; };
    s.policy = spec::HibernusPlusPlus{c};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("probe"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  // All covering specs are cacheable by construction.
  for (const NamedSpec& named : covering_specs()) {
    EXPECT_TRUE(spec::is_cacheable(named.spec)) << named.name;
    EXPECT_EQ(spec::non_cacheable_reason(named.spec), "") << named.name;
  }
}

// ---------------------------------------------------- golden registry -----
// Every golden file under tests/golden/ is registered here with the
// function that computes its expected content. EDC_UPDATE_GOLDEN=1
// regenerates *all* of them in one pass; the checking run compares all of
// them and fails once, listing every stale file — so an intentional format
// change is always a single regenerate-and-commit, never a
// fix-one-discover-the-next loop. A diff in any of these files means
// every existing cache entry is invalidated: bump the version constant the
// file's header names alongside the regeneration (see the versioning
// policies in serialize.h and result_io.h).

std::string hash_hex(std::uint64_t hash) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

struct GoldenFile {
  std::string name;     // file name under tests/golden/
  std::string what;     // one-line description for the file header
  std::string format;   // the format (and version) the file pins
  std::string version;  // the version constant a diff here must bump
  std::map<std::string, std::string> (*compute)();
};

std::string spec_format() {
  return "spec format v" + std::to_string(spec::kSpecFormatVersion);
}

/// The bytes Cache::store writes for a fixed (non-spec) key text.
std::string stored_entry_bytes() {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "edc_result_pin_cache";
  std::filesystem::remove_all(dir);
  const sweep::Cache cache(dir);
  const std::string key = "pinned cache key\n";
  cache.store(key, pinned_result(), 1234.5, 'b');
  std::ifstream in(cache.entry_path(key), std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove_all(dir);
  return bytes.str();
}

const std::vector<GoldenFile>& golden_registry() {
  static const std::vector<GoldenFile> registry = {
      {"spec_hashes.txt",
       "covering SystemSpecs (spec::spec_hash; <name>.document: the\n"
       "# spec::document form of the specs with a trace)",
       spec_format(), "spec::kSpecFormatVersion",
       [] {
         std::map<std::string, std::string> entries;
         for (const NamedSpec& named : covering_specs()) {
           entries[named.name] = hash_hex(spec::spec_hash(named.spec));
           if (has_trace(named.spec)) {
             entries[named.name + ".document"] =
                 hash_hex(spec::fnv1a64(spec::document(named.spec)));
           }
         }
         return entries;
       }},
      {"result_hashes.txt",
       "hand-built pinned_result() row and cache entry",
       "result format v" + std::to_string(sim::kResultFormatVersion) +
           ", cache entry v3",
       "sim::kResultFormatVersion (or the entry magic in\n"
       "# sweep/cache.cpp)",
       [] {
         const auto hash = [](const std::string& bytes) {
           return hash_hex(spec::fnv1a64(bytes));
         };
         return std::map<std::string, std::string>{
             {"sim-result", hash(sim::serialize_result(pinned_result()))},
             {"cache-entry", hash(stored_entry_bytes())},
         };
       }},
  };
  return registry;
}

// The golden files pin the canonical hashes across runs, machines and
// compilers. Regenerate with EDC_UPDATE_GOLDEN=1 after an *intentional*
// format change — and bump the version constant the file's header names.
TEST(SpecSerial, GoldenHashesAreStableAcrossRuns) {
  const std::string golden_dir = std::string(EDC_TESTS_DIR) + "/golden/";

  if (std::getenv("EDC_UPDATE_GOLDEN") != nullptr) {
    // One pass regenerates every registered golden file.
    for (const GoldenFile& file : golden_registry()) {
      const std::string path = golden_dir + file.name;
      std::ofstream out(path, std::ios::trunc);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << "# FNV-1a-64 of the canonical serialization (" << file.format
          << ") of tests/spec_serial_test.cpp's\n"
          << "# " << file.what << ". EDC_UPDATE_GOLDEN=1 regenerates every\n"
          << "# golden file in one pass; a diff here invalidates every cache\n"
          << "# entry, so bump " << file.version << " alongside it.\n";
      for (const auto& [name, hex] : file.compute()) out << name << ' ' << hex << '\n';
    }
    GTEST_SKIP() << "golden files regenerated under " << golden_dir;
  }

  std::vector<std::string> stale;
  for (const GoldenFile& file : golden_registry()) {
    SCOPED_TRACE(file.name);
    const std::string path = golden_dir + file.name;
    std::ifstream in(path);
    if (!in.good()) {
      ADD_FAILURE() << "missing golden file " << path;
      stale.push_back(file.name + " (missing)");
      continue;
    }
    std::map<std::string, std::string> golden;
    std::string line;
    bool malformed = false;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, hex;
      if (!(fields >> name >> hex)) {
        ADD_FAILURE() << "malformed golden line in " << file.name << ": " << line;
        malformed = true;
        break;
      }
      golden[name] = hex;
    }
    if (malformed) {
      stale.push_back(file.name + " (malformed)");
      continue;
    }
    const std::map<std::string, std::string> actual = file.compute();
    EXPECT_EQ(actual, golden) << "canonical hashes drifted from tests/golden/"
                              << file.name;
    if (actual != golden) stale.push_back(file.name);
  }

  EXPECT_TRUE(stale.empty())
      << "stale golden files: " << [&] {
           std::string joined;
           for (const std::string& name : stale) {
             if (!joined.empty()) joined += ", ";
             joined += name;
           }
           return joined;
         }() << " — if the format change is intentional, bump the version "
                "constant each stale file's header names and regenerate ALL "
                "golden files in one pass with EDC_UPDATE_GOLDEN=1";
}

}  // namespace
