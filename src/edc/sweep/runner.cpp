#include "edc/sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "edc/sim/batch_kernel.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/batch.h"
#include "edc/sweep/cache.h"

namespace edc::sweep {

namespace {

/// One schedulable unit: the row slots of a lockstep chunk (>= 1 lane
/// through the kernel) or of a single scalar point.
struct WorkUnit {
  std::vector<std::size_t> slots;
  bool batch = false;
};

/// Microseconds elapsed since `start`.
double micros_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

}  // namespace

std::vector<sim::SimResult> Runner::execute(const Grid& grid,
                                            const std::vector<std::size_t>& points,
                                            RunReport* report) const {
  std::vector<sim::SimResult> rows(points.size());
  if (report != nullptr) {
    report->micros.assign(rows.size(), 0.0);
    report->provenance.assign(rows.size(), kProvenanceScalar);
    report->origin.assign(rows.size(), kOriginFresh);
  }
  const auto record = [report](std::size_t slot, double micros, char provenance,
                               char origin) {
    if (report == nullptr) return;
    report->micros[slot] = micros;
    report->provenance[slot] = provenance;
    report->origin[slot] = origin;
  };
  Cache* cache = options_.cache;
  // The canonical cache key of a spec, or "" when there is no cache or the
  // spec is non-cacheable. Keys of recorded-trace specs run to megabytes,
  // so nothing holds one beyond the load or store that needs it.
  const auto cache_key = [cache](const spec::SystemSpec& spec) {
    return cache != nullptr && spec::is_cacheable(spec) ? spec::serialize(spec)
                                                        : std::string();
  };
  // Resolves one point against the cache (each point exactly once per
  // run): a hit replays the stored row, its original cost and provenance
  // into the slot; a non-cacheable point is counted.
  const auto replay_warm = [&](const std::string& key, std::size_t slot) {
    if (cache == nullptr) return false;
    if (key.empty()) {
      cache->note_non_cacheable();
      return false;
    }
    auto hit = cache->load(key);
    if (!hit) return false;
    rows[slot] = std::move(hit->result);
    record(slot, hit->micros, hit->provenance, kOriginWarm);
    return true;
  };

  std::vector<WorkUnit> units;
  if (options_.batch) {
    // Warm points are resolved before grouping, so they never pay for a
    // group key. std::map keeps group order — and therefore chunk
    // boundaries and cache stores — deterministic.
    std::map<std::string, std::vector<std::size_t>> groups;
    std::vector<std::size_t> singles;
    for (std::size_t slot = 0; slot < points.size(); ++slot) {
      const Point point = grid.point(points[slot]);
      if (replay_warm(cache_key(point.spec), slot)) continue;
      if (auto key = batch_group_key(point.spec)) {
        groups[*key].push_back(slot);
      } else {
        singles.push_back(slot);
      }
    }
    // Chunk each group into <= batch_lanes lanes (balanced, so a trailing
    // chunk is never starved down to one lane unless the group itself is
    // tiny). Singleton groups gain nothing from the kernel — they take the
    // scalar path and keep scalar provenance.
    const auto lane_cap =
        static_cast<std::size_t>(options_.batch_lanes > 1 ? options_.batch_lanes : 1);
    for (auto& [key, members] : groups) {
      (void)key;
      if (members.size() < 2 || lane_cap < 2) {
        singles.insert(singles.end(), members.begin(), members.end());
        continue;
      }
      const std::size_t n = members.size();
      const std::size_t chunks = (n + lane_cap - 1) / lane_cap;
      std::size_t begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t size = n / chunks + (c < n % chunks ? 1 : 0);
        units.push_back(WorkUnit{
            {members.begin() + static_cast<std::ptrdiff_t>(begin),
             members.begin() + static_cast<std::ptrdiff_t>(begin + size)},
            true});
        begin += size;
      }
    }
    for (const std::size_t slot : singles) units.push_back(WorkUnit{{slot}, false});
  } else {
    for (std::size_t slot = 0; slot < points.size(); ++slot) {
      units.push_back(WorkUnit{{slot}, false});
    }
  }

  // Units write disjoint slots, so rows are bit-identical at any thread
  // count.
  pooled(units.size(), [&](std::size_t u) {
    const WorkUnit& unit = units[u];
    if (!unit.batch) {
      const std::size_t slot = unit.slots.front();
      const Point point = grid.point(points[slot]);
      const std::string key = cache_key(point.spec);
      if (!options_.batch && replay_warm(key, slot)) return;
      // The cost recorded is instantiate + run: the point's own wall time.
      const auto start = std::chrono::steady_clock::now();
      rows[slot] = spec::instantiate(point.spec).run();
      const double micros = micros_since(start);
      if (!key.empty()) cache->store(key, rows[slot], micros, kProvenanceScalar);
      record(slot, micros, kProvenanceScalar, kOriginFresh);
      return;
    }
    // Instantiate every lane's fresh system, then wire the non-owning lane
    // table (pointers are taken only after the vector stops growing).
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::EnergyDrivenSystem> systems;
    systems.reserve(unit.slots.size());
    for (const std::size_t slot : unit.slots) {
      systems.push_back(spec::instantiate(grid.point(points[slot]).spec));
    }
    std::vector<sim::BatchLane> lanes;
    lanes.reserve(systems.size());
    for (core::EnergyDrivenSystem& system : systems) {
      lanes.push_back(sim::BatchLane{system.sim_config(), &system.node(),
                                     &system.driver(), &system.mcu(),
                                     system.governor()});
    }
    std::vector<sim::SimResult> results = sim::BatchKernel(std::move(lanes)).run();
    // Amortized lane cost: the chunk's wall time split evenly — the point's
    // marginal cost under *batched* re-execution, which is what a batched
    // shard plan should weigh — with the sub-lane remainder distributed so
    // the recorded costs sum back to the measured wall time (see
    // amortize_lane_micros). The provenance contract in sweep/batch.h says
    // why these must not silently mix with scalar timings.
    const std::vector<double> per_lane =
        amortize_lane_micros(micros_since(start), unit.slots.size());
    for (std::size_t k = 0; k < unit.slots.size(); ++k) {
      const std::size_t slot = unit.slots[k];
      if (cache != nullptr) {
        const std::string key = cache_key(grid.point(points[slot]).spec);
        if (!key.empty()) cache->store(key, results[k], per_lane[k], kProvenanceBatch);
      }
      rows[slot] = std::move(results[k]);
      record(slot, per_lane[k], kProvenanceBatch, kOriginFresh);
    }
  });
  return rows;
}

std::vector<sim::SimResult> Runner::run(const Grid& grid, RunReport* report) const {
  std::vector<std::size_t> points(grid.size());
  std::iota(points.begin(), points.end(), std::size_t{0});
  return execute(grid, points, report);
}

std::vector<sim::SimResult> Runner::run_shard(const Grid& grid, const Shard& shard,
                                              RunReport* report) const {
  std::vector<std::size_t> points(shard.owned_count(grid.size()));
  for (std::size_t slot = 0; slot < points.size(); ++slot) {
    points[slot] = shard.index + slot * shard.count;
  }
  return execute(grid, points, report);
}

std::vector<sim::SimResult> Runner::run_assignment(const Grid& grid,
                                                   const ShardAssignment& assignment,
                                                   std::size_t shard_index,
                                                   RunReport* report) const {
  return execute(grid, assignment.owned.at(shard_index), report);
}

int Runner::thread_count(std::size_t point_count) const noexcept {
  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (point_count < static_cast<std::size_t>(threads)) {
    threads = static_cast<int>(point_count);
  }
  return std::max(threads, 1);
}

void Runner::for_each_point(const Grid& grid,
                            const std::function<void(const Point&)>& body) const {
  pooled(grid.size(), [&grid, &body](std::size_t i) { body(grid.point(i)); });
}

void Runner::pooled(std::size_t count,
                    const std::function<void(std::size_t)>& body) const {
  if (count == 0) return;
  const int threads = thread_count(count);
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace edc::sweep
