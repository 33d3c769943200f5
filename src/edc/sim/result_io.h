// Canonical, versioned text serialization for sim::SimResult.
//
// Counterpart of edc/spec/serialize for the *output* side of a simulation:
// every field of the result bundle — energy ledger, MCU metrics, NVM
// counters, state transitions, probe waveforms — round-trips through text
// bit-identically (doubles via std::to_chars shortest form). This is the
// row format of the sweep cache (edc/sweep/cache): a cached point replays
// exactly the bytes a fresh simulation would produce.
//
// Bump kResultFormatVersion whenever the canonical byte stream of an
// existing result would change (new field, reordered field); the cache
// keys its directory layout on this version, so stale entries age out
// instead of misparsing.
#pragma once

#include <string>

#include "edc/sim/simulator.h"

namespace edc::sim {

// v2: SimResult gained the step-mix diagnostics fine_steps / span_steps /
// spans (PR 5), so cached rows replay the same coverage numbers a fresh
// simulation reports.
inline constexpr int kResultFormatVersion = 2;

/// Canonical byte string of the result (always succeeds).
[[nodiscard]] std::string serialize_result(const SimResult& result);

/// Inverse of serialize_result(). Strict: throws canon::FormatError on
/// unknown fields, wrong version, truncation, or trailing bytes.
[[nodiscard]] SimResult parse_result(const std::string& text);

}  // namespace edc::sim
