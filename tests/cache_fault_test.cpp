// Fault-injection and crash-safety suite for the sweep cache seams:
// injected read/truncate/write/rename faults degrade gracefully
// (quarantine + resimulate, never a wrong row), kill-during-store cannot
// expose a partial entry (atomic tmp+rename), an unwritable cache dir
// degrades to simulate-everything, and the fault schedule itself is a
// deterministic function of (seed, op, key, occurrence).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/fault_injector.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

namespace {

using namespace edc;
namespace fs = std::filesystem;

spec::SystemSpec cheap_spec(std::uint64_t seed = 3) {
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 25.0, 0.5, 0.0, 50.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 20000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = seed;
  s.sim.t_end = 0.3;
  return s;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("edc_fault_" + name);
  fs::remove_all(dir);
  return dir;
}

std::string serial_row(const spec::SystemSpec& s) {
  sweep::RunnerOptions options;
  options.threads = 1;
  return sim::serialize_result(sweep::Runner(options).run(sweep::Grid(s)).at(0));
}

/// True when `dir` holds no visible cache entry (no *.edcres anywhere) —
/// tmp debris and .bad quarantine files don't count.
bool no_visible_entries(const fs::path& dir) {
  std::error_code ec;
  for (const auto& item : fs::recursive_directory_iterator(dir, ec)) {
    if (item.is_regular_file(ec) && item.path().extension() == ".edcres") {
      return false;
    }
  }
  return true;
}

TEST(CacheFault, InjectedReadErrorsAreTransientMissesNotQuarantines) {
  sweep::Cache cache(fresh_dir("read"));
  const spec::SystemSpec s = cheap_spec();
  const std::string key = spec::serialize(s);
  const sim::SimResult result = sim::parse_result(serial_row(s));
  cache.store(key, result);
  ASSERT_TRUE(cache.load(key).has_value());

  sweep::FaultPlan plan;
  plan.seed = 11;
  plan.read_error = 1.0;
  sweep::FaultInjector chaos(plan);
  cache.set_fault_injector(&chaos);
  // Every read reports an I/O error: a miss, but the entry is NOT corrupt
  // and must stay in place for the retry that will succeed.
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_GE(chaos.counters().read_errors, 2u);
  EXPECT_EQ(cache.stats().quarantined, 0u);
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));

  cache.set_fault_injector(nullptr);
  const auto healed = cache.load(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(sim::serialize_result(healed->result), serial_row(s));
}

TEST(CacheFault, TruncatedReadQuarantinesTheEntry) {
  sweep::Cache cache(fresh_dir("truncate"));
  const spec::SystemSpec s = cheap_spec();
  const std::string key = spec::serialize(s);
  cache.store(key, sim::parse_result(serial_row(s)));

  sweep::FaultPlan plan;
  plan.seed = 12;
  plan.truncate_read = 1.0;
  sweep::FaultInjector chaos(plan);
  cache.set_fault_injector(&chaos);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  // Quarantine renames to .bad: out of the load namespace, bytes kept for
  // post-mortem.
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
  EXPECT_TRUE(fs::exists(cache.entry_path(key).string() + ".bad"));

  // The slot is free again: a re-store + clean load round-trips.
  cache.set_fault_injector(nullptr);
  cache.store(key, sim::parse_result(serial_row(s)));
  const auto healed = cache.load(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(sim::serialize_result(healed->result), serial_row(s));
}

TEST(CacheFault, InjectedWriteAndRenameFailuresLeaveNoDebris) {
  for (const bool rename_side : {false, true}) {
    sweep::Cache cache(fresh_dir(rename_side ? "rename" : "write"));
    sweep::FaultPlan plan;
    plan.seed = 13;
    if (rename_side) plan.rename_error = 1.0;
    else plan.write_error = 1.0;
    sweep::FaultInjector chaos(plan);
    cache.set_fault_injector(&chaos);

    const spec::SystemSpec s = cheap_spec();
    const std::string key = spec::serialize(s);
    cache.store(key, sim::parse_result(serial_row(s)));
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(fs::exists(cache.entry_path(key)));
    // The failed store cleans up its temp file: the cache directory holds
    // nothing at all (a "disk full" loop can't fill the disk with debris).
    std::size_t files = 0;
    std::error_code ec;
    for (const auto& item :
         fs::recursive_directory_iterator(cache.directory(), ec)) {
      if (item.is_regular_file(ec)) ++files;
    }
    EXPECT_EQ(files, 0u) << (rename_side ? "rename" : "write");
    const auto counters = chaos.counters();
    EXPECT_GE(rename_side ? counters.rename_errors : counters.write_errors, 1u);
  }
}

TEST(CacheFault, KillDuringStoreNeverExposesAPartialEntry) {
  // Two crash instants: mid-write (tmp file half-written) and post-write /
  // pre-rename. In both, the child dies via _exit(9) inside store() and
  // the entry path must never become visible to any reader.
  const spec::SystemSpec s = cheap_spec();
  const std::string key = spec::serialize(s);
  const sim::SimResult result = sim::parse_result(serial_row(s));

  for (const bool before_rename : {false, true}) {
    const fs::path dir =
        fresh_dir(before_rename ? "crash_rename" : "crash_write");
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      sweep::FaultPlan plan;
      plan.seed = 14;
      if (before_rename) plan.crash_before_rename = 1.0;
      else plan.crash_mid_write = 1.0;
      sweep::FaultInjector chaos(plan);
      sweep::Cache cache(dir);
      cache.set_fault_injector(&chaos);
      cache.store(key, result);  // dies inside
      ::_exit(0);                // unreachable if the crash seam fired
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 9) << "crash seam did not fire";

    // The kill left (at most) tmp debris — never a visible .edcres entry.
    sweep::Cache cache(dir);
    EXPECT_TRUE(no_visible_entries(dir));
    EXPECT_FALSE(cache.load(key).has_value());

    // And the survivor recovers: a clean store round-trips as usual.
    cache.store(key, result);
    const auto healed = cache.load(key);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(sim::serialize_result(healed->result), serial_row(s));
  }
}

TEST(CacheFault, UnwritableCacheDirDegradesToSimulateEverything) {
  // Root the cache under a regular *file*: every create_directories and
  // store fails with ENOTDIR (works even when the test runs as root,
  // where permission bits are ignored). The Runner must degrade to
  // simulate-everything with correct stats and bit-identical rows.
  const fs::path blocker = fresh_dir("blocker");
  fs::create_directories(blocker);
  const fs::path file = blocker / "occupied";
  { std::ofstream(file.string()) << "not a directory\n"; }
  sweep::Cache cache(file / "cache");

  sweep::Grid grid(cheap_spec());
  grid.workload_seed_axis({1, 2, 3});
  sweep::RunnerOptions clean;
  clean.threads = 1;
  const auto reference = sweep::Runner(clean).run(grid);

  sweep::RunnerOptions options;
  options.threads = 1;
  options.cache = &cache;
  for (int round = 0; round < 2; ++round) {
    const auto rows = sweep::Runner(options).run(grid);
    ASSERT_EQ(rows.size(), reference.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(sim::serialize_result(rows[i]),
                sim::serialize_result(reference[i]));
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.stores, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u * grid.size());
}

TEST(CacheFault, FaultScheduleIsDeterministicPerSeed) {
  sweep::FaultPlan plan;
  plan.seed = 99;
  plan.read_error = 0.5;
  const sweep::FaultInjector a(plan);
  const sweep::FaultInjector b(plan);
  plan.seed = 100;
  const sweep::FaultInjector c(plan);

  std::vector<bool> seq_a, seq_b, seq_c;
  for (int i = 0; i < 64; ++i) {
    seq_a.push_back(a.fail_read(0xfeedu));
    seq_b.push_back(b.fail_read(0xfeedu));
    seq_c.push_back(c.fail_read(0xfeedu));
  }
  // Same seed => the same schedule, occurrence by occurrence; a different
  // seed => a different schedule (64 draws at p=0.5 colliding by chance is
  // a 2^-64 event).
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_NE(seq_a, seq_c);
  // Distinct keys get independent occurrence streams.
  std::vector<bool> key2;
  for (int i = 0; i < 64; ++i) key2.push_back(a.fail_read(0xbeefu));
  EXPECT_NE(seq_a, key2);
}

TEST(CacheFault, FaultedStormStaysByteIdenticalUnderCacheChaos) {
  // The acceptance shape at unit scale: a grid run repeatedly through a
  // faulted cache (failed reads, truncation-quarantines, failed writes /
  // renames) must produce bit-identical rows every round — chaos degrades
  // performance, never results.
  sweep::Cache cache(fresh_dir("storm"));
  sweep::FaultPlan plan;
  plan.seed = 21;
  plan.read_error = 0.3;
  plan.truncate_read = 0.3;
  plan.write_error = 0.2;
  plan.rename_error = 0.2;
  sweep::FaultInjector chaos(plan);
  cache.set_fault_injector(&chaos);

  sweep::Grid grid(cheap_spec());
  grid.workload_seed_axis({10, 11, 12, 13});
  sweep::RunnerOptions clean;
  clean.threads = 1;
  const auto reference = sweep::Runner(clean).run(grid);

  sweep::RunnerOptions options;
  options.threads = 1;
  options.cache = &cache;
  for (int round = 0; round < 8; ++round) {
    const auto rows = sweep::Runner(options).run(grid);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(sim::serialize_result(rows[i]),
                sim::serialize_result(reference[i]))
          << "round " << round << " point " << i;
    }
  }
  const auto counters = chaos.counters();
  EXPECT_GE(counters.read_errors + counters.truncated_reads, 1u)
      << "the storm never stormed";
}

}  // namespace
