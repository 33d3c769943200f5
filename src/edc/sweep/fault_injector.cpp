#include "edc/sweep/fault_injector.h"

namespace edc::sweep {

namespace {

// Operation codes: part of the schedule key, so the same (seed, key)
// draws independently for each seam. The values are pinned: renumbering
// one would reshuffle every seeded schedule.
enum Op : int {
  kOpRead = 1,
  kOpTruncate = 2,
  kOpWrite = 3,
  kOpRename = 4,
  kOpCrashWrite = 7,
  kOpCrashRename = 8,
};

/// splitmix64: a full-avalanche mixer, so op/key/occurrence bits all
/// perturb every output bit (the standard seeding finalizer).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

bool FaultInjector::roll(int op, std::uint64_t key, double p) const {
  if (p <= 0.0) return false;
  std::uint64_t occurrence = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Composite counter key; mixing op into the key spreads the
    // per-operation streams across the map.
    occurrence = occurrences_[mix64(key + static_cast<std::uint64_t>(op))]++;
  }
  const std::uint64_t draw =
      mix64(mix64(plan_.seed ^ (static_cast<std::uint64_t>(op) << 56)) ^
            mix64(key) ^ occurrence);
  // Top 53 bits -> uniform double in [0, 1).
  const double uniform = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return uniform < p;
}

bool FaultInjector::fail_read(std::uint64_t key) const {
  const bool fail = roll(kOpRead, key, plan_.read_error);
  if (fail) ++read_errors_;
  return fail;
}

bool FaultInjector::truncate_read(std::uint64_t key) const {
  const bool fail = roll(kOpTruncate, key, plan_.truncate_read);
  if (fail) ++truncated_reads_;
  return fail;
}

bool FaultInjector::fail_write(std::uint64_t key) const {
  const bool fail = roll(kOpWrite, key, plan_.write_error);
  if (fail) ++write_errors_;
  return fail;
}

bool FaultInjector::fail_rename(std::uint64_t key) const {
  const bool fail = roll(kOpRename, key, plan_.rename_error);
  if (fail) ++rename_errors_;
  return fail;
}

bool FaultInjector::crash_mid_write(std::uint64_t key) const {
  return roll(kOpCrashWrite, key, plan_.crash_mid_write);
}

bool FaultInjector::crash_before_rename(std::uint64_t key) const {
  return roll(kOpCrashRename, key, plan_.crash_before_rename);
}

FaultCounters FaultInjector::counters() const {
  FaultCounters counters;
  counters.read_errors = read_errors_.load();
  counters.truncated_reads = truncated_reads_.load();
  counters.write_errors = write_errors_.load();
  counters.rename_errors = rename_errors_.load();
  return counters;
}

}  // namespace edc::sweep
