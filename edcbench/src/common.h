// Shared helpers of the benchmark program: clocks, seed streams, medians,
// byte digests.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "edc/sim/simulator.h"

namespace edcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a 64 over raw bytes, chained through `hash` so several buffers can
/// be folded into one digest.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// An independent 64-bit seed for the named input stream of a workload
/// seed: the same (seed, stream) always yields the same value, and streams
/// do not share values, so the wind schedule of one seed is not the RF
/// schedule of another.
inline std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream) {
  std::uint64_t x = fnv1a(stream) ^ (seed * 0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Median of a non-empty sample (mean of the middle pair when even).
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The ledger-closure bound the simulator's own macro-vs-fine suite holds
/// every run to: |harvested - consumed - dissipated - dstored| below
/// 1 uJ plus one part per million of the harvested energy.
inline bool ledger_closes(const edc::sim::SimResult& result) {
  const double residual = result.ledger_residual();
  return residual < 1e-6 + 1e-6 * result.harvested &&
         -residual < 1e-6 + 1e-6 * result.harvested;
}

}  // namespace edcbench
