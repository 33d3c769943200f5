// Canonical, versioned text serialization for spec::SystemSpec, in two
// forms that differ only in how a recorded trace is written:
//
//   serialize(s)  the key form: a VoltageTraceSource/PowerTraceSource wave
//                 is `t0`, `dt`, `count <n>` and `sha256 <64 hex>`
//                 (trace::Waveform::digest), so a key stays ~1-2 KB however
//                 long the trace. Every content address uses it: cache
//                 keys, spec_hash and sweep::batch_group_key.
//   document(s)   the document form: the wave is `t0`, `dt`, `samples <n>`
//                 and one line per sample, a self-contained text people and
//                 files exchange (design_query --spec / --print-spec).
//
// For a spec without a trace the two are the same bytes. parse_spec()
// reads the document form only, and rejects a key naming a trace by its
// digest, since the samples are not in it. Both forms emit every field of
// every source/storage/workload/policy variant on its own line, in a fixed
// order, with doubles printed in shortest round-trip form (std::to_chars),
// so document(parse_spec(document(s))) == document(s) and
// serialize(parse_spec(document(s))) == serialize(s) byte-for-byte.
// parse_spec() is strict — it expects exactly the canonical lines in
// canonical order, and throws SpecFormatError on anything else (unknown
// fields, missing fields, trailing garbage, version mismatch). That
// strictness is what makes the format safe to hash: two specs share a key
// only if they are semantically identical. Equal key text means
// bit-identical samples, because no one can construct a SHA-256 collision
// (a 64-bit digest could be forced to collide); an FNV-64 collision between
// key texts is only a miss, because the cache stores the full key text.
//
// Custom factory callbacks (CustomVoltageSource, CustomPowerSource,
// CustomPolicy, WorkloadSpec::factory, a hibernus++ capacitance_probe)
// cannot be serialized — they are opaque code, not data. Such specs are
// *non-cacheable*: is_cacheable() returns false, non_cacheable_reason()
// names the offending field, and serialize() and document() throw. The
// sweep cache simulates them unconditionally.
//
// Versioning policy: kSpecFormatVersion is part of the header line and of
// the cache directory layout. Bump it whenever the canonical byte stream
// for an existing spec would change (new field, reordered field, changed
// number formatting) — old cache entries then simply stop matching.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "edc/common/canon.h"
#include "edc/spec/system_spec.h"

namespace edc::spec {

// v2: SimConfig gained macro_stepping + macro_v_tol (PR 3). The version is
// part of the cache directory layout, so v1 entries age out instead of
// colliding with differently-shaped keys.
// v3: macro_stepping's semantics widened — the quiescent engine (PR 4) now
// also macro-steps sleep/wait/done spans to the analytic comparator
// crossing, so macro results for sleep-heavy scenarios legitimately moved
// within the accuracy contract. The byte format is unchanged; the bump
// exists to age out cached macro rows computed under the old semantics.
// v4: SimConfig gained charge_spans (PR 5, the analytic charge-span
// planner), and macro runs additionally jump certified charging ramps —
// the field changes the byte stream and the semantics widening ages out
// macro rows cached under decay-only planning. The stochastic sources'
// quiet-segment hints don't alter the byte format but legitimately move
// macro results for wind/kinetic scenarios within the accuracy contract,
// which the same bump covers.
// v5: SimConfig gained ramp_spans (PR 7, the certified piecewise-linear
// span planner), and macro runs additionally jump interval-certified
// affine chords of sine/wind/trace sources — the field changes the byte
// stream and the semantics widening ages out macro rows cached under
// constant-window-only planning.
// v6: the fleet API (PR 10). Two new serializable variants — the
// coupled_rf source (spec::CoupledRfPower, the FleetSpec lowering target)
// and the adaptive_buffer policy (spec::AdaptiveBuffer) — plus an
// edc.FleetSpec container format, since deleted: a fleet's cache keys are
// its lowered node specs (sweep/fleet.h), so no fleet text is ever keyed.
// Existing specs' byte streams are unchanged, but the tag vocabulary
// widened, so the bump keeps old caches from holding entries a newer
// reader would accept and an older reader would reject.
// v7: SimConfig lost charge_spans and ramp_spans. One span planner over
// one closed form (circuit::AffineSolution) now plans every certificate
// kind, so there is nothing left to switch off; the fields leave the byte
// stream, and macro rows cached under the old planners age out.
// v8: keys name a recorded trace by `count` and `sha256` instead of
// listing its samples (the key form above); the inline-sample spelling
// moved to document(). Every key holding a trace changed bytes.
inline constexpr int kSpecFormatVersion = 8;

/// Thrown by serialize()/parse_spec() on any deviation from the canonical
/// format (shared with the SimResult serializer in edc/sim/result_io).
using SpecFormatError = canon::FormatError;

/// Empty string when `spec` is canonically serializable; otherwise the
/// human-readable reason it is not (names the opaque-callback field).
[[nodiscard]] std::string non_cacheable_reason(const SystemSpec& spec);

/// True when serialize() would succeed (no opaque factory callbacks).
[[nodiscard]] bool is_cacheable(const SystemSpec& spec);

/// The key form: canonical byte string of the spec, each trace named by
/// its sample count and SHA-256. Throws SpecFormatError when
/// !is_cacheable(spec).
[[nodiscard]] std::string serialize(const SystemSpec& spec);

/// The document form: like serialize(), but each trace lists its samples,
/// so parse_spec() can read it back. Equals serialize(spec) for a spec
/// without a trace. Throws SpecFormatError when !is_cacheable(spec).
[[nodiscard]] std::string document(const SystemSpec& spec);

/// Inverse of document(). Strict: throws SpecFormatError on unknown or
/// out-of-order fields, wrong version, truncation, trailing bytes, or a
/// trace in the key form.
[[nodiscard]] SystemSpec parse_spec(const std::string& text);

/// FNV-1a 64-bit over arbitrary bytes (the cache's content address).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// fnv1a64(serialize(spec)); throws when !is_cacheable(spec). Stable
/// across runs, platforms and processes for a given format version
/// (golden-hash tested in tests/spec_serial_test.cpp).
[[nodiscard]] std::uint64_t spec_hash(const SystemSpec& spec);

}  // namespace edc::spec
