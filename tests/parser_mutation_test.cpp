// Seeded mutation suite for the canonical parsers: spec::parse_spec,
// sim::parse_result and the sweep cache's entry decode (Cache::load on a
// planted entry). Every mutant of a canonical seed text must either be
// rejected with canon::FormatError, or be accepted with a canonical
// re-serialization c that is a fixed point:
// serialize(parse(c)) == c. Any other outcome — another exception type, a
// crash, a sanitizer report — fails and prints the seed and the input.
// Non-canonical spellings such as 1e308 stay accepted. Mutations:
// truncation at every byte; random byte flips, deletions and splices;
// numeric-token swaps (-1, nan, inf, 1e308, 2^64-1); and one deterministic
// pass setting every count token to 2^64-1.
//
// ctest runs the fixed seed list below. Longer local runs:
//   EDC_PROPERTY_SEED=<n>        run seed n only
//   EDC_PROPERTY_ITERATIONS=<k>  random mutants per seed text (default 150)
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "edc/common/canon.h"
#include "edc/sim/result_io.h"
#include "edc/spec/fleet_spec.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

namespace {

using namespace edc;
namespace fs = std::filesystem;

constexpr const char* kMaxU64 = "18446744073709551615";

std::vector<std::uint64_t> seeds() {
  if (const char* seed = std::getenv("EDC_PROPERTY_SEED")) return {std::stoull(seed)};
  return {1, 2, 3, 5, 8, 13};
}

int iterations() {
  const char* n = std::getenv("EDC_PROPERTY_ITERATIONS");
  return n != nullptr ? std::stoi(n) : 150;
}

spec::SystemSpec cheap_spec() {
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 25.0, 0.5, 0.0, 50.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 20000.0;
  s.workload.kind = "fft-small";
  s.sim.t_end = 0.3;
  return s;
}

/// A run with transitions and probe waveforms: every counted result section.
spec::SystemSpec probed_spec() {
  spec::SystemSpec s = cheap_spec();
  s.sim.probe_interval = 0.05;
  s.sim.stop_on_completion = false;
  return s;
}

/// A spec with every counted spec section: waveform samples, DFS levels.
spec::SystemSpec traced_governed_spec() {
  spec::SystemSpec s = cheap_spec();
  s.source = spec::VoltageTraceSource{
      trace::Waveform(0.25, 0.5, {0.0, 1.5, 3.25, 2.125, 0.375}), 75.0, "bench \"A\""};
  s.policy = spec::Hibernus{};
  neutral::McuDfsGovernor::Config g;
  g.frequencies = {1e6, 4e6, 8e6};
  s.governor = g;
  return s;
}

/// The seed key's stored entry in a scratch cache, for planting mutants.
struct CacheFixture {
  explicit CacheFixture(const std::string& name)
      : dir(fs::path(testing::TempDir()) / ("edc_parser_mutation_" + name)),
        cache((fs::remove_all(dir), dir)),
        key(spec::serialize(probed_spec())),
        row(sim::serialize_result(spec::instantiate(probed_spec()).run())),
        path(cache.entry_path(key)) {
    cache.store(key, sim::parse_result(row), 1234.5, 'b');
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    entry = buffer.str();
  }
  ~CacheFixture() { fs::remove_all(dir); }

  /// The entry re-framed around another result text (the result block is
  /// the entry's last block), so decode hands that text to parse_result.
  [[nodiscard]] std::string reframe(const std::string& result_text) const {
    const std::size_t header = entry.rfind("\nresult_bytes ");
    return entry.substr(0, header + 1) + "result_bytes " +
           std::to_string(result_text.size()) + "\n" + result_text;
  }

  void plant(const std::string& bytes) const {
    fs::remove(path.string() + ".bad");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  /// Plants `bytes`; load must not throw. Returns the loaded row's text; an
  /// entry load rejects reads as a FormatError.
  [[nodiscard]] std::string load(const std::string& bytes) const {
    plant(bytes);
    const auto hit = cache.load(key);
    if (!hit) throw canon::FormatError("entry rejected");
    return sim::serialize_result(hit->result);
  }

  fs::path dir;
  sweep::Cache cache;
  std::string key, row, entry;
  fs::path path;
};

/// One parser under test: canonical(x) is serialize(parse(x)).
struct Codec {
  std::string name;
  std::vector<std::string> corpus;  ///< canonical seed texts
  std::function<std::string(const std::string&)> canonical;
};

std::vector<Codec> codecs(const std::shared_ptr<const CacheFixture>& fixture) {
  return {
      {"parse_spec",
       // The fleet node carries the RF field block (a coupled_rf source)
       // and the adaptive_buffer policy.
       {spec::document(cheap_spec()), spec::document(traced_governed_spec()),
        spec::document(spec::fleet_node_spec(spec::example_rf_fleet(2), 1))},
       [](const std::string& x) { return spec::document(spec::parse_spec(x)); }},
      {"parse_result",
       {fixture->row},
       [](const std::string& x) { return sim::serialize_result(sim::parse_result(x)); }},
      {"cache entry",
       {fixture->entry},
       [fixture](const std::string& x) { return fixture->reframe(fixture->load(x)); }},
      {"cached result",
       {fixture->row},
       [fixture](const std::string& x) { return fixture->load(fixture->reframe(x)); }},
  };
}

/// Byte ranges of the space/newline-separated tokens that parse as numbers.
std::vector<std::pair<std::size_t, std::size_t>> numeric_tokens(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const std::size_t begin = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\n') ++i;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data() + begin, text.data() + i, v);
    if (i > begin && ec == std::errc{} && ptr == text.data() + i) {
      tokens.emplace_back(begin, i - begin);
    }
  }
  return tokens;
}

/// One to three random edits: byte flip, deletion, splice from the corpus,
/// or numeric-token swap.
std::string mutate(std::string out, const std::vector<std::string>& corpus,
                   std::mt19937_64& rng) {
  static const char* const kSwaps[] = {"-1", "nan", "inf", "1e308", kMaxU64};
  const auto pick = [&rng](std::size_t n) -> std::size_t { return n == 0 ? 0 : rng() % n; };
  for (int edits = 1 + static_cast<int>(rng() % 3); edits > 0; --edits) {
    switch (rng() % 4) {
      case 0:
        if (!out.empty()) out[pick(out.size())] ^= static_cast<char>(1 + rng() % 255);
        break;
      case 1:
        out.erase(pick(out.size() + 1), 1 + pick(8));
        break;
      case 2: {
        const std::string& donor = corpus[pick(corpus.size())];
        out.replace(pick(out.size() + 1), pick(16),
                    donor.substr(pick(donor.size()), 1 + pick(64)));
        break;
      }
      default:
        if (const auto tokens = numeric_tokens(out); !tokens.empty()) {
          const auto [begin, length] = tokens[pick(tokens.size())];
          out.replace(begin, length, kSwaps[pick(std::size(kSwaps))]);
        }
    }
  }
  return out;
}

/// One mutant per count token (`<key> <digits>` line of a counted section
/// or length-prefixed block), with that count replaced by `value`.
std::vector<std::string> huge_count_mutants(const std::string& text,
                                            const std::string& value = kMaxU64) {
  static const std::vector<std::string_view> kCountKeys = {
      "samples", "frequencies", "transitions", "probes", "spec_bytes", "result_bytes"};
  std::vector<std::string> mutants;
  for (std::size_t line = 0; line < text.size();) {
    const std::size_t end = std::min(text.find('\n', line), text.size());
    const std::size_t key = text.find_first_not_of(' ', line);
    const std::size_t space = text.find(' ', key);
    if (space < end) {
      const std::string_view name(text.data() + key, space - key);
      const std::string_view count(text.data() + space + 1, end - space - 1);
      if (!count.empty() && count.find_first_not_of("0123456789") == std::string::npos &&
          std::find(kCountKeys.begin(), kCountKeys.end(), name) != kCountKeys.end()) {
        mutants.push_back(text.substr(0, space + 1) + value + text.substr(end));
      }
    }
    line = end + 1;
  }
  return mutants;
}

std::string describe(const std::exception& error) {
  return std::string(typeid(error).name()) + ": " + error.what();
}

/// Runs every mutation family over `codec`; reports the first violation.
void run_suite(const Codec& codec) {
  std::size_t mutants = 0;
  int failures = 0;
  const auto check = [&](std::uint64_t seed, const std::string& what,
                         const std::string& input) {
    ++mutants;
    std::string reason;
    try {
      const std::string c = codec.canonical(input);
      try {
        if (codec.canonical(c) != c) reason = "accepted, but c is not a fixed point";
      } catch (const std::exception& error) {
        reason = "accepted, but c does not parse: " + describe(error);
      }
    } catch (const canon::FormatError&) {
      return;
    } catch (const std::exception& error) {
      reason = "threw something other than FormatError: " + describe(error);
    }
    if (reason.empty() || failures++ > 0) return;
    ADD_FAILURE() << codec.name << " seed " << seed << " (" << what << "): " << reason
                  << "\n--- input (" << input.size() << " bytes) ---\n"
                  << input << "\n--- end input ---";
  };

  for (const std::string& text : codec.corpus) {
    ASSERT_EQ(codec.canonical(text), text) << codec.name << ": seed text not canonical";
    for (std::size_t n = 0; n < text.size(); ++n) {
      check(0, "truncated to " + std::to_string(n) + " bytes", text.substr(0, n));
    }
    for (const std::string& mutant : huge_count_mutants(text)) {
      check(0, "count set to 2^64-1", mutant);
    }
  }
  for (const std::uint64_t seed : seeds()) {
    std::mt19937_64 rng(seed);
    for (const std::string& text : codec.corpus) {
      for (int i = 0; i < iterations(); ++i) {
        check(seed, "random mutant " + std::to_string(i), mutate(text, codec.corpus, rng));
      }
    }
  }
  EXPECT_EQ(failures, 0) << codec.name << ": " << failures << " violations in " << mutants
                         << " mutants";
}

TEST(ParserMutation, SpecDocumentsParseToTheirKeysAndKeysAreNotDocuments) {
  for (const spec::SystemSpec& s : {cheap_spec(), traced_governed_spec()}) {
    EXPECT_EQ(spec::serialize(spec::parse_spec(spec::document(s))), spec::serialize(s));
  }
  EXPECT_THROW((void)spec::parse_spec(spec::serialize(traced_governed_spec())),
               canon::FormatError);
}

TEST(ParserMutation, EveryParserRejectsLoudlyOrRoundTrips) {
  for (const Codec& codec : codecs(std::make_shared<CacheFixture>("suite"))) {
    run_suite(codec);
  }
}

TEST(ParserMutation, EveryCountedSectionRejectsAHugeCount) {
  for (const Codec& codec : codecs(std::make_shared<CacheFixture>("counts"))) {
    if (codec.name == "cache entry") continue;  // its counts sit behind length prefixes
    std::size_t sections = 0;
    for (const std::string& text : codec.corpus) {
      for (const std::string& mutant : huge_count_mutants(text)) {
        ++sections;
        EXPECT_THROW((void)codec.canonical(mutant), canon::FormatError) << codec.name;
      }
    }
    EXPECT_GE(sections, 1u) << codec.name;
  }
}

TEST(ParserMutation, HugeCountInACachedRowIsQuarantinedAndResimulated) {
  CacheFixture fixture("quarantine");
  sweep::RunnerOptions options;
  options.threads = 1;
  options.cache = &fixture.cache;
  for (const std::string value : {"30000000000", kMaxU64}) {
    for (const std::string& mutant : huge_count_mutants(fixture.row, value)) {
      fixture.plant(fixture.reframe(mutant));
      fixture.cache.reset_stats();
      const auto rows = sweep::Runner(options).run(sweep::Grid(probed_spec()));
      EXPECT_EQ(sim::serialize_result(rows.at(0)), fixture.row);
      EXPECT_EQ(fixture.cache.stats().quarantined, 1u);
      EXPECT_EQ(fixture.cache.stats().stores, 1u);
    }
  }
}

TEST(ParserMutation, IntFieldsRejectValuesOutsideIntRange) {
  spec::SystemSpec mementos = cheap_spec();
  mementos.policy = spec::Mementos{};
  spec::SystemSpec adaptive = cheap_spec();
  adaptive.policy = spec::AdaptiveBuffer{};
  const struct {
    spec::SystemSpec spec;
    std::string field;
    std::string value;
  } cases[] = {
      {cheap_spec(), "node_substeps", "4294967297"},  // int
      {cheap_spec(), "node_substeps", "-2147483649"},
      {mementos, "poll_stride", "4294967296"},  // unsigned
      {adaptive, "min_buffer", "4294967296"},
      {adaptive, "max_buffer", "4294967296"},
  };
  for (const auto& c : cases) {
    std::string text = spec::serialize(c.spec);
    const std::size_t key = text.find(" " + c.field + " ");
    ASSERT_NE(key, std::string::npos) << c.field;
    const std::size_t begin = key + c.field.size() + 2;
    text.replace(begin, text.find('\n', begin) - begin, c.value);
    EXPECT_THROW((void)spec::parse_spec(text), canon::FormatError)
        << c.field << " " << c.value;
  }
}

}  // namespace
