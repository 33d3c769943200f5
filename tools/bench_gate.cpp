// bench_gate — turns the perf-trajectory's recorded speedups into gates.
//
// Reads one or more google-benchmark JSON files (the BENCH_<pr>.json the
// CI perf job emits), pairs up the BM_MacroPair/<Name>_fine and
// BM_MacroPair/<Name>_macro entries, and asserts each named pair's
// fine/macro real-time ratio against a per-pair threshold:
//
//   bench_gate BENCH_6.json --gate Fig7Gapped=15 --gate Fig8WindSurvey=3
//
// --batch-gate does the same for the batched-sweep pairs
// BM_BatchPair/<Name>_scalar and _batch (sweep/batch.h), asserting the
// scalar/batch ratio — the SoA kernel's speedup on that grid class:
//
//   bench_gate BENCH_6.json --batch-gate Fig7Survey=2 --batch-gate Eq5Grid=1.2
//
// --steps-gate gates the macro legs' step mix, which unlike a ratio is
// exact and the same on every host: BM_MacroPair records the last run's
// fine_steps, span_steps and spans as counters, and --steps-gate
// Name=MaxFine,MaxSpans fails when BM_MacroPair/<Name>_macro ran more fine
// steps or more spans than its ceiling, or lacks either counter. A planner
// that stops claiming time shows here on any host, however fast the fine
// path has become:
//
//   bench_gate BENCH_7.json --steps-gate Fig8WindSurvey=141371,27697
//
// The --steps-gate counts are whole decimal numbers; a sign (as in -1,
// which would wrap to 2^64 - 1 and never fail) is rejected.
//
// Exit status 0 iff every gated pair is present and at or above its
// threshold, and every step-mix gate is present and within its ceiling —
// so a quiescent-engine or batch-kernel speedup that silently
// regresses turns the CI job red instead of merely shrinking a number in
// an archived artifact. Multiple JSON files merge their entries (later
// files win), which lets several benchmark runs feed one gate invocation.
//
// The parser is deliberately minimal: it scans for the "name",
// "real_time", "time_unit" and step-mix counter keys of each benchmark
// object in the order google-benchmark emits them. Unknown pairs and
// non-BM_MacroPair entries are ignored.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

/// A whole unsigned decimal count that fills `text`: std::from_chars takes
/// no sign or space, so "-1" fails instead of wrapping to 2^64 - 1.
bool parse_count(std::string_view text, unsigned long long& out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

struct Sample {
  double real_time = 0.0;
  std::string unit;
  /// BM_MacroPair step-mix counters; absent from files recorded before
  /// perf_micro emitted them.
  std::optional<double> fine_steps;
  std::optional<double> spans;
};

/// Extracts the JSON string that starts at text[pos] (pos at the opening
/// quote). No escape handling beyond \": benchmark names never need more.
std::string parse_string(const std::string& text, std::size_t pos) {
  std::string out;
  for (std::size_t i = pos + 1; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      out.push_back(text[++i]);
      continue;
    }
    if (text[i] == '"') break;
    out.push_back(text[i]);
  }
  return out;
}

/// Value of `"key": <scalar>` at/after `from` and before `until`.
/// Returns the raw scalar text ("" when absent).
std::string find_scalar(const std::string& text, const std::string& key,
                        std::size_t from, std::size_t until) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= until) return "";
  std::size_t i = text.find(':', at + needle.size());
  if (i == std::string::npos || i >= until) return "";
  ++i;
  while (i < until && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i < until && text[i] == '"') return parse_string(text, i);
  std::string out;
  while (i < until && text[i] != ',' && text[i] != '\n' && text[i] != '}') {
    out.push_back(text[i++]);
  }
  return out;
}

/// The number that fills `text`, or nullopt (absent key or junk).
std::optional<double> parse_number(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

/// Collects name -> (real_time, unit, step-mix counters) for every
/// benchmark entry in the google-benchmark JSON `text`.
void collect(const std::string& text, std::map<std::string, Sample>& out) {
  // Entries live in the "benchmarks" array; each starts with a "name" key.
  std::size_t at = text.find("\"benchmarks\"");
  if (at == std::string::npos) return;
  const std::string needle = "\"name\"";
  at = text.find(needle, at);
  while (at != std::string::npos) {
    const std::size_t next = text.find(needle, at + needle.size());
    const std::size_t until = next == std::string::npos ? text.size() : next;
    std::size_t q = text.find(':', at + needle.size());
    if (q == std::string::npos) break;
    q = text.find('"', q);
    if (q == std::string::npos || q >= until) break;
    const std::string name = parse_string(text, q);
    Sample sample;
    const std::string rt = find_scalar(text, "real_time", q, until);
    sample.unit = find_scalar(text, "time_unit", q, until);
    sample.fine_steps = parse_number(find_scalar(text, "fine_steps", q, until));
    sample.spans = parse_number(find_scalar(text, "spans", q, until));
    if (!rt.empty()) {
      char* end = nullptr;
      sample.real_time = std::strtod(rt.c_str(), &end);
      if (end != rt.c_str()) out[name] = sample;
    }
    at = next;
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [BENCH.json ...] [--gate Pair=MinRatio ...] "
               "[--batch-gate Pair=MinRatio ...]\n"
               "          [--steps-gate Pair=MaxFine,MaxSpans ...]\n"
               "  --gate       Pair names a BM_MacroPair/<Pair>_fine & _macro "
               "pair; asserts fine/macro >= MinRatio.\n"
               "  --batch-gate Pair names a BM_BatchPair/<Pair>_scalar & "
               "_batch pair; asserts scalar/batch >= MinRatio.\n"
               "  --steps-gate Pair names a BM_MacroPair/<Pair>_macro entry; "
               "asserts its fine_steps <= MaxFine and spans <= MaxSpans.\n",
               argv0);
  return 2;
}

}  // namespace

struct Gate {
  std::string pair;
  double min_ratio = 0.0;
  /// false: BM_MacroPair/<pair>_{fine,macro}; true:
  /// BM_BatchPair/<pair>_{scalar,batch}.
  bool batch = false;
};

struct StepsGate {
  std::string pair;
  unsigned long long max_fine = 0;
  unsigned long long max_spans = 0;
};

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<Gate> gates;
  std::vector<StepsGate> steps_gates;
  for (int i = 1; i < argc; ++i) {
    const bool is_gate = std::strcmp(argv[i], "--gate") == 0;
    const bool is_batch_gate = std::strcmp(argv[i], "--batch-gate") == 0;
    if ((is_gate || is_batch_gate) && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return usage(argv[0]);
      char* end = nullptr;
      const double min_ratio = std::strtod(spec.c_str() + eq + 1, &end);
      if (end == spec.c_str() + eq + 1 || *end != '\0' || !(min_ratio > 0.0)) {
        std::fprintf(stderr, "bad %s ratio: '%s'\n", argv[i - 1], spec.c_str());
        return 2;
      }
      gates.push_back({spec.substr(0, eq), min_ratio, is_batch_gate});
    } else if (std::strcmp(argv[i], "--steps-gate") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return usage(argv[0]);
      const std::string_view counts = std::string_view(spec).substr(eq + 1);
      const std::size_t comma = counts.find(',');
      StepsGate gate;
      gate.pair = spec.substr(0, eq);
      if (comma == std::string_view::npos ||
          !parse_count(counts.substr(0, comma), gate.max_fine) ||
          !parse_count(counts.substr(comma + 1), gate.max_spans)) {
        std::fprintf(stderr, "bad --steps-gate counts: '%s'\n", spec.c_str());
        return 2;
      }
      steps_gates.push_back(gate);
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if ((gates.empty() && steps_gates.empty()) || files.empty()) {
    return usage(argv[0]);
  }

  std::map<std::string, Sample> samples;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    collect(text.str(), samples);
  }
  int failures = 0;
  for (const Gate& gate : gates) {
    // The slow (reference) leg over the fast (gated) leg, in both families.
    const char* prefix = gate.batch ? "BM_BatchPair/" : "BM_MacroPair/";
    const char* slow_suffix = gate.batch ? "_scalar" : "_fine";
    const char* fast_suffix = gate.batch ? "_batch" : "_macro";
    const auto slow = samples.find(prefix + gate.pair + slow_suffix);
    const auto fast = samples.find(prefix + gate.pair + fast_suffix);
    if (slow == samples.end() || fast == samples.end()) {
      std::printf("[FAIL] %-18s missing %s entry\n", gate.pair.c_str(),
                  slow == samples.end() ? slow_suffix : fast_suffix);
      ++failures;
      continue;
    }
    if (slow->second.unit != fast->second.unit) {
      std::printf("[FAIL] %-18s %s/%s time units differ (%s vs %s)\n",
                  gate.pair.c_str(), slow_suffix + 1, fast_suffix + 1,
                  slow->second.unit.c_str(), fast->second.unit.c_str());
      ++failures;
      continue;
    }
    if (!(fast->second.real_time > 0.0)) {
      std::printf("[FAIL] %-18s non-positive %s time\n", gate.pair.c_str(),
                  fast_suffix + 1);
      ++failures;
      continue;
    }
    const double ratio = slow->second.real_time / fast->second.real_time;
    const bool ok = ratio >= gate.min_ratio;
    std::printf("[%s] %-18s %8.2f %s %s / %8.2f %s %s = %6.2fx (gate %.2fx)\n",
                ok ? "PASS" : "FAIL", gate.pair.c_str(), slow->second.real_time,
                slow->second.unit.c_str(), slow_suffix + 1,
                fast->second.real_time, fast->second.unit.c_str(),
                fast_suffix + 1, ratio, gate.min_ratio);
    if (!ok) ++failures;
  }
  for (const StepsGate& gate : steps_gates) {
    const auto macro = samples.find("BM_MacroPair/" + gate.pair + "_macro");
    if (macro == samples.end()) {
      std::printf("[FAIL] %-18s missing _macro entry\n", gate.pair.c_str());
      ++failures;
      continue;
    }
    const std::optional<double>& fine = macro->second.fine_steps;
    const std::optional<double>& spans = macro->second.spans;
    if (!fine || !spans) {
      std::printf("[FAIL] %-18s missing %s counter\n", gate.pair.c_str(),
                  !fine ? "fine_steps" : "spans");
      ++failures;
      continue;
    }
    const bool ok = *fine <= static_cast<double>(gate.max_fine) &&
                    *spans <= static_cast<double>(gate.max_spans);
    std::printf("[%s] %-18s %.0f fine steps (gate <= %llu), %.0f spans "
                "(gate <= %llu)\n",
                ok ? "PASS" : "FAIL", gate.pair.c_str(), *fine, gate.max_fine,
                *spans, gate.max_spans);
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
