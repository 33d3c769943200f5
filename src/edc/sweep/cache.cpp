#include "edc/sweep/cache.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/fault_injector.h"

namespace edc::sweep {

namespace {

// v2: a `micros` wall-time line between the magic and the blocks (PR 3).
// v3: a `provenance` line ('s' scalar / 'b' batch) after the wall time
//     (PR 6). v2 entries live only under spec v2-v4 directories, which this
//     build never reads, so only v3 decodes.
constexpr char kEntryMagic[] = "edc.CacheEntry v3";

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Entry format: metadata lines plus two length-prefixed raw blocks, so
/// neither the key nor the result text needs escaping:
///
///   edc.CacheEntry v3\n
///   micros <wall time of the original simulation, canonical double>\n
///   provenance <s|b>\n
///   spec_bytes <N>\n
///   <N raw bytes of canonical spec text>
///   result_bytes <M>\n
///   <M raw bytes of canonical result text>
std::string encode_entry(const std::string& key_text, const std::string& result_text,
                         double micros, char provenance) {
  std::string out;
  out.reserve(key_text.size() + result_text.size() + 96);
  out += kEntryMagic;
  out += "\nmicros " + canon::double_text(micros) + "\nprovenance ";
  out += provenance;
  out += '\n';
  canon::append_block(out, "spec_bytes", key_text);
  canon::append_block(out, "result_bytes", result_text);
  return out;
}

/// An entry's parts, as views into the entry bytes.
struct DecodedEntry {
  std::string_view spec_text;
  std::string_view result_text;
  double micros = 0.0;
  char provenance = 's';
};

/// Splits an entry back into its parts; throws canon::FormatError on any
/// corruption (bad magic, malformed, negative or NaN wall time, bad
/// provenance, truncated blocks, trailing bytes).
DecodedEntry decode_entry(std::string_view bytes) {
  canon::FrameReader in(bytes);
  if (in.line() != kEntryMagic) throw canon::FormatError("bad cache entry magic");
  DecodedEntry entry;
  entry.micros = canon::parse_double(in.value("micros"));
  if (!(entry.micros >= 0.0)) throw canon::FormatError("negative or NaN wall time");
  const std::string_view provenance = in.value("provenance");
  if (provenance != "s" && provenance != "b") {
    throw canon::FormatError("bad provenance '" + std::string(provenance) + "'");
  }
  entry.provenance = provenance.front();
  entry.spec_text = in.block("spec_bytes");
  entry.result_text = in.block("result_bytes");
  in.finish();
  return entry;
}

/// Renames a corrupt entry to <entry>.bad, out of the load namespace but
/// kept for post-mortem. Best-effort: false when the rename failed (a
/// concurrent quarantine of the same entry is fine).
bool quarantine_entry(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::rename(path, path.string() + ".bad", ec);
  return !ec;
}

}  // namespace

Cache::Cache(std::filesystem::path directory) : dir_(std::move(directory)) {}

std::filesystem::path Cache::entry_path(const std::string& key_text) const {
  return entry_path(spec::fnv1a64(key_text));
}

std::filesystem::path Cache::entry_path(std::uint64_t key_hash) const {
  // A format bump changes the v<S>-<R> component, so entries written under
  // other versions are never read.
  const std::string versioned = "v" + std::to_string(spec::kSpecFormatVersion) +
                                "-" + std::to_string(sim::kResultFormatVersion);
  const std::string hex = hex16(key_hash);
  return dir_ / versioned / hex.substr(0, 2) / (hex + ".edcres");
}

std::optional<CachedPoint> Cache::load(const std::string& key_text) const {
  const std::uint64_t key_hash = spec::fnv1a64(key_text);
  const std::filesystem::path path = entry_path(key_hash);
  if (fault_injector_ != nullptr && fault_injector_->fail_read(key_hash)) {
    // An injected transient I/O error: the entry is unreadable this time
    // (not corrupt — nothing to quarantine), so degrade to a miss.
    ++misses_;
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ++misses_;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    ++misses_;
    return std::nullopt;
  }
  std::string bytes = buffer.str();
  if (fault_injector_ != nullptr && fault_injector_->truncate_read(key_hash)) {
    // An injected short read: the decoder must reject the prefix and the
    // quarantine path below must fire exactly as for real corruption.
    bytes.resize(bytes.size() / 2);
  }

  try {
    const DecodedEntry entry = decode_entry(bytes);
    if (entry.spec_text != key_text) {
      // A well-formed entry for a *different* spec: a 64-bit hash
      // collision, not corruption. The stored row is not ours — miss, but
      // leave the entry alone (it is somebody's valid result).
      ++misses_;
      return std::nullopt;
    }
    CachedPoint point;
    point.result = sim::parse_result(std::string(entry.result_text));
    point.micros = entry.micros;
    point.provenance = entry.provenance;
    ++hits_;
    return point;
  } catch (const canon::FormatError&) {
    // Bytes exist but don't decode or parse: a torn or bit-rotted entry.
    // Move it aside so it stops wasting a read per lookup; the caller
    // simulates and its store() writes a healthy entry in its place.
    if (quarantine_entry(path)) ++quarantined_;
    ++misses_;
    return std::nullopt;
  }
}

void Cache::store(const std::string& key_text, const sim::SimResult& result,
                  double micros, char provenance) const {
  const std::uint64_t key_hash = spec::fnv1a64(key_text);
  const std::filesystem::path path = entry_path(key_hash);
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  if (ec) return;  // unwritable cache never fails the sweep

  // Unique temp name per writer (pid + thread, so independent processes
  // sharing one cache directory cannot interleave into the same file);
  // rename() is atomic within the directory, so readers only ever see
  // complete entries.
  const std::size_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::filesystem::path tmp =
      path.parent_path() /
      (path.filename().string() + ".tmp" +
       std::to_string(static_cast<long long>(::getpid())) + "-" + hex16(tid));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    const std::string entry =
        encode_entry(key_text, sim::serialize_result(result), micros, provenance);
    if (fault_injector_ != nullptr &&
        fault_injector_->crash_mid_write(key_hash)) {
      // Fork-based crash tests: die with the tmp file half-written. The
      // entry path must never become visible (rename never ran).
      out.write(entry.data(), static_cast<std::streamsize>(entry.size() / 2));
      out.flush();
      ::_exit(9);
    }
    out.write(entry.data(), static_cast<std::streamsize>(entry.size()));
    const bool injected_write_error =
        fault_injector_ != nullptr && fault_injector_->fail_write(key_hash);
    if (!out.good() || injected_write_error) {
      // A failed (or injected-failed, e.g. disk-full) write never leaves
      // debris: drop the tmp file and degrade to "not cached".
      out.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  if (fault_injector_ != nullptr &&
      fault_injector_->crash_before_rename(key_hash)) {
    ::_exit(9);
  }
  if (fault_injector_ != nullptr && fault_injector_->fail_rename(key_hash)) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  ++stores_;
}

CacheStats Cache::stats() const noexcept {
  CacheStats stats;
  stats.hits = hits_.load();
  stats.misses = misses_.load();
  stats.stores = stores_.load();
  stats.non_cacheable = non_cacheable_.load();
  stats.quarantined = quarantined_.load();
  return stats;
}

void Cache::reset_stats() const noexcept {
  hits_.store(0);
  misses_.store(0);
  stores_.store(0);
  non_cacheable_.store(0);
  quarantined_.store(0);
}

}  // namespace edc::sweep
