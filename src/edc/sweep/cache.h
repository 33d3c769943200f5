// Content-addressed on-disk memoisation of sweep points.
//
// A grid point is a pure function of its spec (spec::instantiate is
// repeatable and the simulator is deterministic), so its SimResult can be
// keyed by the canonical serialization of the spec (which includes the
// SimConfig) and reused across runs: iterating on one grid axis stops
// re-simulating the rest of the grid, and repeated bench invocations with
// an unchanged spec simulate nothing at all.
//
// The key is spec::serialize's key form: a recorded trace enters it as its
// sample count and SHA-256, not sample by sample, so a key stays ~1-2 KB
// however long the trace. Two traces share a key only if their samples are
// bit-identical (SHA-256 collisions cannot be constructed; a 64-bit digest
// could be forced to collide), so a digest never makes a wrong row.
//
//   sweep::Cache cache("/tmp/edc-cache");
//   sweep::RunnerOptions options;
//   options.cache = &cache;
//   const auto rows = sweep::Runner(options).run(grid);   // warm points load
//   cache.stats();  // {hits, misses, stores, non_cacheable}
//
// On-disk layout (documented in README "Scaling sweeps"):
//
//   <dir>/v<S>-<R>/<hh>/<16-hex-fnv64>.edcres
//
// where S = spec::kSpecFormatVersion, R = sim::kResultFormatVersion, `hh`
// is the first byte of the FNV-1a-64 hash of the canonical spec text, and
// the entry file stores the *full* key text next to the serialized result
// (plus the point's original wall time in microseconds), so a 64-bit hash
// collision degrades to a miss, never a wrong result.
// Bumping either format version changes the directory component, aging out
// stale entries instead of misparsing them.
//
// Entries are written to a temp file and renamed into place, so concurrent
// writers (the Runner's worker threads, or independent processes pointed
// at a shared directory) never expose a torn entry. load() is the one
// place an entry is verified: unreadable entries are treated as misses;
// *corrupt* entries (bytes present but undecodable, or a stored result
// that fails to parse) are self-healed: the bad file is quarantined —
// renamed to <entry>.bad, out of the load namespace — and counted in
// stats().quarantined, so a bad sector can't keep masquerading as a cache
// entry. A valid entry whose embedded key differs (a 64-bit hash
// collision) is NOT corruption and is left in place. A hit only reads the
// file system; there is no eviction — to reclaim space, delete the
// directory. Specs carrying opaque factory callbacks are non-cacheable (see
// spec::non_cacheable_reason) and are always re-simulated; the Runner
// counts them in stats().non_cacheable.
//
// For chaos testing, set_fault_injector() threads a sweep::FaultInjector
// through every I/O seam (read / truncated read / write / rename, plus the
// process-kill crash points fork-based crash tests use); injected faults
// exercise exactly the degradation paths above.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "edc/sim/simulator.h"

namespace edc::sweep {

class FaultInjector;

struct CacheStats {
  std::uint64_t hits = 0;           ///< load() found a valid entry
  std::uint64_t misses = 0;         ///< load() found nothing usable
  std::uint64_t stores = 0;         ///< store() wrote an entry
  std::uint64_t non_cacheable = 0;  ///< points skipped (opaque callbacks)
  std::uint64_t quarantined = 0;    ///< corrupt entries renamed to .bad
};

/// A cache hit: the memoised result plus the wall time the original
/// simulation of the point took (microseconds; 0 when unrecorded). The
/// cost survives cache round trips, so a warm re-run still reports each
/// point's simulation cost (RunReport::micros).
struct CachedPoint {
  sim::SimResult result;
  double micros = 0.0;
  /// Which execution path produced the stored result: 's' = scalar
  /// simulator, 'b' = batched SoA kernel (see sweep/batch.h). The two are
  /// bit-identical by contract, but timing consumers need the distinction
  /// because batch wall times are amortized over a lane group —
  /// warm hits replay the original provenance so a re-run cannot silently
  /// relabel its timings. Every entry carries the field: decode rejects
  /// an entry without it.
  char provenance = 's';
};

class Cache {
 public:
  /// Anchors the cache at `directory` (created lazily on first store).
  explicit Cache(std::filesystem::path directory);

  /// Looks up the result stored under the canonical spec text `key_text`
  /// (as produced by spec::serialize). Thread-safe. A corrupt entry is
  /// quarantined and reads as a miss.
  [[nodiscard]] std::optional<CachedPoint> load(const std::string& key_text) const;

  /// Stores `result` under `key_text`, atomically (temp file + rename),
  /// together with the wall time the simulation took (microseconds) and
  /// the execution-path provenance ('s' scalar / 'b' batch).
  /// Thread-safe; concurrent stores of the same key are harmless.
  void store(const std::string& key_text, const sim::SimResult& result,
             double micros = 0.0, char provenance = 's') const;

  /// Threads a fault injector through every I/O seam (nullptr to detach).
  /// Not owned; must outlive the Cache. Not thread-safe against concurrent
  /// load/store — wire it up before handing the cache to workers.
  void set_fault_injector(const FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }

  /// Books a point that could not participate (opaque factory callbacks).
  void note_non_cacheable() const noexcept { ++non_cacheable_; }

  [[nodiscard]] CacheStats stats() const noexcept;
  void reset_stats() const noexcept;

  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return dir_;
  }

  /// Full path of the entry a given canonical key text maps to.
  [[nodiscard]] std::filesystem::path entry_path(const std::string& key_text) const;

 private:
  /// The entry path for a key whose FNV-1a-64 is `key_hash`.
  [[nodiscard]] std::filesystem::path entry_path(std::uint64_t key_hash) const;

  std::filesystem::path dir_;
  const FaultInjector* fault_injector_ = nullptr;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> stores_{0};
  mutable std::atomic<std::uint64_t> non_cacheable_{0};
  mutable std::atomic<std::uint64_t> quarantined_{0};
};

}  // namespace edc::sweep
