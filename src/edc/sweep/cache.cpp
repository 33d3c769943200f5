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
//     (PR 6). v2 entries still decode — they all predate the batch path,
//     so their provenance is 's' by construction.
constexpr char kEntryMagic[] = "edc.CacheEntry v3";
constexpr char kEntryMagicV2[] = "edc.CacheEntry v2";

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
  out += '\n';
  out += "micros " + canon::double_text(micros) + '\n';
  out += "provenance ";
  out += provenance;
  out += '\n';
  out += "spec_bytes " + std::to_string(key_text.size()) + '\n';
  out += key_text;
  out += "result_bytes " + std::to_string(result_text.size()) + '\n';
  out += result_text;
  return out;
}

struct DecodedEntry {
  std::string spec_text;
  std::string result_text;
  double micros = 0.0;
  char provenance = 's';
};

/// Splits an entry back into its parts; nullopt on any corruption (bad
/// magic, malformed wall time, truncated blocks, trailing bytes).
std::optional<DecodedEntry> decode_entry(const std::string& bytes) {
  std::size_t pos = 0;
  const auto read_line = [&]() -> std::optional<std::string> {
    const std::size_t end = bytes.find('\n', pos);
    if (end == std::string::npos) return std::nullopt;
    std::string line = bytes.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };
  const auto read_block = [&](const char* prefix) -> std::optional<std::string> {
    const auto header = read_line();
    if (!header || header->rfind(prefix, 0) != 0) return std::nullopt;
    std::size_t length = 0;
    try {
      length = static_cast<std::size_t>(
          canon::parse_u64(std::string_view(*header).substr(std::string(prefix).size())));
    } catch (const canon::FormatError&) {
      return std::nullopt;
    }
    if (length > bytes.size() - pos) return std::nullopt;
    std::string block = bytes.substr(pos, length);
    pos += length;
    return block;
  };

  const auto magic = read_line();
  if (!magic || (*magic != kEntryMagic && *magic != kEntryMagicV2)) {
    return std::nullopt;
  }
  const auto micros_line = read_line();
  if (!micros_line || micros_line->rfind("micros ", 0) != 0) return std::nullopt;
  DecodedEntry entry;
  try {
    entry.micros = canon::parse_double(std::string_view(*micros_line).substr(7));
  } catch (const canon::FormatError&) {
    return std::nullopt;
  }
  if (*magic == kEntryMagic) {
    const auto provenance_line = read_line();
    if (!provenance_line || provenance_line->size() != 12 ||
        provenance_line->rfind("provenance ", 0) != 0) {
      return std::nullopt;
    }
    entry.provenance = (*provenance_line)[11];
    if (entry.provenance != 's' && entry.provenance != 'b') return std::nullopt;
  }
  auto spec_text = read_block("spec_bytes ");
  if (!spec_text) return std::nullopt;
  auto result_text = read_block("result_bytes ");
  if (!result_text) return std::nullopt;
  if (pos != bytes.size()) return std::nullopt;
  entry.spec_text = std::move(*spec_text);
  entry.result_text = std::move(*result_text);
  return entry;
}

}  // namespace

Cache::Cache(std::filesystem::path directory) : dir_(std::move(directory)) {}

std::filesystem::path Cache::versioned_directory() const {
  return dir_ / ("v" + std::to_string(spec::kSpecFormatVersion) + "-" +
                 std::to_string(sim::kResultFormatVersion));
}

std::filesystem::path Cache::entry_path(const std::string& key_text) const {
  const std::string hex = hex16(spec::fnv1a64(key_text));
  return versioned_directory() / hex.substr(0, 2) / (hex + ".edcres");
}

bool Cache::quarantine_entry(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::rename(path, path.string() + ".bad", ec);
  return !ec;
}

std::optional<CachedPoint> Cache::load(const std::string& key_text) const {
  const std::filesystem::path path = entry_path(key_text);
  const std::uint64_t key_hash = spec::fnv1a64(key_text);
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

  const auto quarantine_corrupt = [this, &path] {
    if (quarantine_entry(path)) ++quarantined_;
    ++misses_;
  };

  const auto entry = decode_entry(bytes);
  if (!entry) {
    // Bytes exist but don't decode: a torn or bit-rotted entry. Move it
    // aside so it stops wasting a read per lookup and can't be mistaken
    // for a healthy entry by pruning; the caller simulates.
    quarantine_corrupt();
    return std::nullopt;
  }
  if (entry->spec_text != key_text) {
    // A well-formed entry for a *different* spec: a 64-bit hash collision,
    // not corruption. The stored row is not ours — miss, but leave the
    // entry alone (it is somebody's valid result).
    ++misses_;
    return std::nullopt;
  }
  try {
    CachedPoint point;
    point.result = sim::parse_result(entry->result_text);
    point.micros = entry->micros;
    point.provenance = entry->provenance;
    ++hits_;
    // Refresh recency so LRU pruning ranks this entry as just-used.
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    return point;
  } catch (const canon::FormatError&) {
    quarantine_corrupt();
    return std::nullopt;
  }
}

std::string Cache::fsck_entry(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "unreadable";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return "read error";

  const auto entry = decode_entry(buffer.str());
  if (!entry) return "undecodable (bad magic, truncated block, or trailing bytes)";
  const std::string expected = hex16(spec::fnv1a64(entry->spec_text)) + ".edcres";
  if (path.filename().string() != expected) {
    return "filename does not match the embedded key text (expected " + expected +
           ")";
  }
  try {
    (void)sim::parse_result(entry->result_text);
  } catch (const canon::FormatError& error) {
    return std::string("stored result does not parse: ") + error.what();
  }
  if (!(entry->micros >= 0.0)) return "negative or NaN wall time";
  return {};
}

void Cache::store(const std::string& key_text, const sim::SimResult& result,
                  double micros, char provenance) const {
  const std::filesystem::path path = entry_path(key_text);
  const std::uint64_t key_hash = spec::fnv1a64(key_text);
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  if (ec) return;  // unwritable cache never fails the sweep

  // Unique temp name per writer (pid + thread, so shard *processes*
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
