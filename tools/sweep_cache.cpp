// sweep_cache — inspect, prune and verify an on-disk sweep cache
// (sweep::Cache; ROADMAP "Cache eviction & inspection").
//
//   sweep_cache stats <dir>
//       Per version directory (<dir>/v<S>-<R>): entry count, total bytes,
//       and the age span of the entries (by mtime, which load() refreshes
//       on every hit — so "age" means time since last *use*).
//
//   sweep_cache prune <dir> --max-bytes <N>
//       Deletes least-recently-used entries (oldest mtime first, across
//       all version directories) until the cache fits in N bytes. Entries
//       from stale format versions age out first in practice because
//       nothing refreshes them.
//
//   sweep_cache fsck <dir> [--delete | --quarantine]
//       Verifies every entry of the *current* format version: decodable
//       blocks, filename matching the FNV-1a-64 of the embedded canonical
//       key text, parseable stored result. Reports broken entries; with
//       --delete removes them, with --quarantine moves them aside (renamed
//       to <entry>.bad, the same self-healing rename Cache::load applies
//       on a corrupt read — bytes preserved for post-mortem, entry out of
//       the load/fsck/prune namespace). Entries under other v<S>-<R>
//       directories belong to other binaries and are skipped, not judged —
//       the versioned layout exists so releases can share one directory.
//       Healthy caches exit 0; corruption exits 1.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "edc/sweep/cache.h"

namespace fs = std::filesystem;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " stats <dir>\n"
            << "       " << argv0 << " prune <dir> --max-bytes <N>\n"
            << "       " << argv0 << " fsck <dir> [--delete | --quarantine]\n"
            << "Inspects (stats), LRU-evicts (prune) or verifies (fsck) an\n"
            << "on-disk sweep cache written by sweep::Cache. fsck --quarantine\n"
            << "renames broken entries to <entry>.bad instead of deleting them.\n";
  return 2;
}

struct Entry {
  fs::path path;
  std::uintmax_t bytes = 0;
  fs::file_time_type mtime;
};

/// All .edcres entries under every version directory of the cache root.
std::vector<Entry> collect_entries(const fs::path& root) {
  std::vector<Entry> entries;
  std::error_code ec;
  for (const auto& item : fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec)) {
    if (!item.is_regular_file(ec)) continue;
    if (item.path().extension() != ".edcres") continue;
    Entry entry;
    entry.path = item.path();
    entry.bytes = item.file_size(ec);
    if (ec) continue;
    entry.mtime = item.last_write_time(ec);
    if (ec) continue;
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// Quarantined (.bad) files under a directory — load()/fsck self-healing
/// residue awaiting post-mortem or deletion.
std::size_t count_quarantined(const fs::path& root) {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& item : fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec)) {
    if (item.is_regular_file(ec) && item.path().extension() == ".bad") ++count;
  }
  return count;
}

double hours_since(fs::file_time_type mtime) {
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double, std::ratio<3600>>(age).count();
}

int cmd_stats(const fs::path& root) {
  std::error_code ec;
  if (!fs::exists(root, ec)) {
    std::cerr << "sweep_cache: no cache at '" << root.string() << "'\n";
    return 1;
  }
  std::uintmax_t total_bytes = 0;
  std::size_t total_entries = 0;
  std::cout << "cache " << root.string() << "\n";
  // One row per version directory (v<S>-<R>), so stale-format residue is
  // visible at a glance.
  std::vector<fs::path> versions;
  for (const auto& item : fs::directory_iterator(root, ec)) {
    if (item.is_directory() && item.path().filename().string().rfind("v", 0) == 0) {
      versions.push_back(item.path());
    }
  }
  std::sort(versions.begin(), versions.end());
  for (const auto& version : versions) {
    const auto entries = collect_entries(version);
    std::uintmax_t bytes = 0;
    double oldest_h = 0.0;
    double newest_h = std::numeric_limits<double>::infinity();
    for (const auto& entry : entries) {
      bytes += entry.bytes;
      const double age = hours_since(entry.mtime);
      oldest_h = std::max(oldest_h, age);
      newest_h = std::min(newest_h, age);
    }
    total_bytes += bytes;
    total_entries += entries.size();
    std::cout << "  " << version.filename().string() << ": " << entries.size()
              << " entries, " << bytes << " bytes";
    if (!entries.empty()) {
      std::cout << ", last used between " << newest_h << "h and " << oldest_h
                << "h ago";
    }
    const std::size_t quarantined = count_quarantined(version);
    if (quarantined > 0) std::cout << ", " << quarantined << " quarantined";
    std::cout << "\n";
  }
  std::cout << "  total: " << total_entries << " entries, " << total_bytes
            << " bytes";
  const std::size_t quarantined = count_quarantined(root);
  if (quarantined > 0) std::cout << ", " << quarantined << " quarantined";
  std::cout << "\n";
  return 0;
}

int cmd_prune(const fs::path& root, std::uintmax_t max_bytes) {
  auto entries = collect_entries(root);
  std::uintmax_t total = 0;
  for (const auto& entry : entries) total += entry.bytes;
  if (total <= max_bytes) {
    std::cout << "sweep_cache: " << total << " bytes <= " << max_bytes
              << ", nothing to prune\n";
    return 0;
  }
  // Least recently used first (load() refreshes mtime on every hit).
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  std::size_t removed = 0;
  std::uintmax_t freed = 0;
  for (const auto& entry : entries) {
    if (total - freed <= max_bytes) break;
    std::error_code ec;
    if (fs::remove(entry.path, ec) && !ec) {
      freed += entry.bytes;
      ++removed;
    }
  }
  std::cout << "sweep_cache: pruned " << removed << " entries, freed " << freed
            << " bytes (" << (total - freed) << " bytes remain)\n";
  return 0;
}

enum class FsckAction { kReport, kDelete, kQuarantine };

int cmd_fsck(const fs::path& root, FsckAction action) {
  // Only the current format version's entries can be judged by this
  // binary; other v<S>-<R> directories are counted but left alone.
  const edc::sweep::Cache cache(root);
  const fs::path current = cache.versioned_directory();
  std::size_t foreign = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(root, ec)) {
    if (item.is_directory(ec) && item.path() != current &&
        item.path().filename().string().rfind("v", 0) == 0) {
      foreign += collect_entries(item.path()).size();
    }
  }

  const auto entries = collect_entries(current);
  std::size_t broken = 0;
  for (const auto& entry : entries) {
    const std::string reason = edc::sweep::Cache::fsck_entry(entry.path);
    if (reason.empty()) continue;
    ++broken;
    std::cout << "BROKEN " << entry.path.string() << ": " << reason << "\n";
    if (action == FsckAction::kDelete) {
      std::error_code remove_ec;
      fs::remove(entry.path, remove_ec);
      if (remove_ec) {
        std::cout << "  (removal failed: " << remove_ec.message() << ")\n";
      }
    } else if (action == FsckAction::kQuarantine) {
      if (!edc::sweep::Cache::quarantine_entry(entry.path)) {
        std::cout << "  (quarantine failed)\n";
      }
    }
  }
  std::cout << "sweep_cache: fsck checked " << entries.size() << " entries, "
            << broken << " broken"
            << (broken == 0                         ? ""
                : action == FsckAction::kDelete     ? " (removed)"
                : action == FsckAction::kQuarantine ? " (quarantined)"
                                                    : "");
  if (foreign > 0) {
    std::cout << "; " << foreign << " entries under other format versions skipped";
  }
  std::cout << "\n";
  return broken == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string command = argv[1];
  const fs::path root = argv[2];

  if (command == "stats" && argc == 3) return cmd_stats(root);

  if (command == "prune") {
    if (argc != 5 || std::strcmp(argv[3], "--max-bytes") != 0) return usage(argv[0]);
    // from_chars takes no sign, so "-1" fails instead of wrapping to 2^64 - 1.
    const char* const text_end = argv[4] + std::strlen(argv[4]);
    unsigned long long max_bytes = 0;
    const auto [ptr, ec] = std::from_chars(argv[4], text_end, max_bytes);
    if (ec != std::errc{} || ptr != text_end) {
      std::cerr << "sweep_cache: --max-bytes needs a non-negative integer, got '"
                << argv[4] << "'\n";
      return 2;
    }
    return cmd_prune(root, static_cast<std::uintmax_t>(max_bytes));
  }

  if (command == "fsck") {
    FsckAction action = FsckAction::kReport;
    if (argc == 4 && std::strcmp(argv[3], "--delete") == 0) {
      action = FsckAction::kDelete;
    } else if (argc == 4 && std::strcmp(argv[3], "--quarantine") == 0) {
      action = FsckAction::kQuarantine;
    } else if (argc != 3) {
      return usage(argv[0]);
    }
    return cmd_fsck(root, action);
  }

  return usage(argv[0]);
}
