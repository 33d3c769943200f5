// Deterministic seeded fault schedules for the sweep cache's I/O seams.
//
// Robustness claims ("a corrupt entry is quarantined", "a failed write
// leaves no debris") are only worth anything if they are *tested under
// faults*, and the tests are only debuggable if the faults are
// reproducible. A FaultInjector turns a seed plus a set of per-operation
// probabilities into a pure fault schedule: whether the k-th read of cache
// entry X fails is a function of (seed, operation, key hash, occurrence
// index) — never of wall time or thread interleaving — so a sweep under
// injected chaos replays the same chaos every run.
//
//   sweep::FaultPlan plan;
//   plan.seed = 42;
//   plan.read_error = 0.15;      // 15% of cache reads report I/O errors
//   plan.truncate_read = 0.15;   // 15% hand back a truncated prefix
//   sweep::FaultInjector chaos(plan);
//   cache.set_fault_injector(&chaos);
//
// Faults are *transient by occurrence*: the schedule decides each
// occurrence of (operation, key) independently, so a read that fails now
// can succeed on retry — which is exactly the failure model the
// degradation path (quarantine-and-resimulate) is designed for.
//
// The crash_* knobs are harsher: they terminate the *process* (_exit) at a
// chosen instant inside Cache::store, for fork-based kill-during-store
// tests proving the atomic tmp+rename discipline never exposes a partial
// entry. They default to 0 and must never be set in a process you care
// about.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace edc::sweep {

/// Per-operation fault probabilities, all in [0, 1]. Decisions are
/// deterministic per (seed, operation, key, occurrence) — see above.
struct FaultPlan {
  std::uint64_t seed = 0;
  // Cache seams (key = FNV-1a-64 of the canonical spec text).
  double read_error = 0.0;     ///< load(): the entry reads as unreadable
  double truncate_read = 0.0;  ///< load(): the entry reads back truncated
  double write_error = 0.0;    ///< store(): the temp-file write fails
  double rename_error = 0.0;   ///< store(): the rename into place fails
  // Process-kill seams inside Cache::store (fork-based crash tests only).
  double crash_mid_write = 0.0;      ///< _exit(9) with the tmp file half-written
  double crash_before_rename = 0.0;  ///< _exit(9) after write, before rename
};

/// How often each fault actually fired (for "the storm really stormed"
/// assertions — a chaos test whose chaos never triggered proves nothing).
struct FaultCounters {
  std::uint64_t read_errors = 0;
  std::uint64_t truncated_reads = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t rename_errors = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  // ---- cache seams (called by sweep::Cache; thread-safe) -------------------
  [[nodiscard]] bool fail_read(std::uint64_t key) const;
  [[nodiscard]] bool truncate_read(std::uint64_t key) const;
  [[nodiscard]] bool fail_write(std::uint64_t key) const;
  [[nodiscard]] bool fail_rename(std::uint64_t key) const;
  [[nodiscard]] bool crash_mid_write(std::uint64_t key) const;
  [[nodiscard]] bool crash_before_rename(std::uint64_t key) const;

  [[nodiscard]] FaultCounters counters() const;
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  /// The schedule core: deterministic Bernoulli(p) draw for the n-th
  /// occurrence of (op, key) under this seed, where n is tracked
  /// internally per (op, key).
  [[nodiscard]] bool roll(int op, std::uint64_t key, double p) const;

  FaultPlan plan_;
  mutable std::mutex mutex_;
  /// Occurrence counters per (op, key); 64-bit mixed composite key (a
  /// collision would merely merge two counters, never break determinism
  /// within a run).
  mutable std::unordered_map<std::uint64_t, std::uint64_t> occurrences_;
  mutable std::atomic<std::uint64_t> read_errors_{0};
  mutable std::atomic<std::uint64_t> truncated_reads_{0};
  mutable std::atomic<std::uint64_t> write_errors_{0};
  mutable std::atomic<std::uint64_t> rename_errors_{0};
};

}  // namespace edc::sweep
