// Solver-guided design queries: answer inverse questions in O(log)
// simulations instead of O(grid).
//
// The paper's real design questions are inverse — "what is the minimum
// capacitance that survives this trace?", "at what interruption frequency
// does hibernus stop beating QuickRecall?" (Eq 5) — and until now every
// one of them was answered by brute-forcing a dense sweep::Grid. With
// value-semantic specs, a deterministic simulator, and a content-addressed
// cache, a monotone inverse question is a classic root-finding problem: a
// Search brackets the sign change of a scalar objective over one
// continuous spec axis and contracts the candidate interval by bisection,
// simulating O(log(range/tol)) points where the dense grid simulates all
// of them.
//
//   sweep::Search search(base_spec,
//                        {"C (F)", [](spec::SystemSpec& s, double c) {
//                           s.storage.capacitance = c;
//                         }},
//                        [](double, const std::vector<sim::SimResult>& rows) {
//                          return rows[0].mcu.brownouts == 0 ? 1.0 : -1.0;
//                        },
//                        options);
//   const auto outcome = search.contract(1e-6, 1e-3, 1e-6);
//   // outcome.hi is the smallest certified-surviving capacitance
//   // (outcome.lo fails), to within 1 uF — after ~12 simulations.
//
// Probes go through the ordinary Runner/Cache path, so a probed row is
// bit-identical to the row the dense grid would have produced at the same
// spec, every probe is memoised on disk (a warm rerun of the same query
// contracts with ZERO simulations), and per-probe wall times land in the
// same cache entries as dense-sweep points. Each probe counts its fresh
// and warm rows (Runner's origin codes); tools/design_query prints the
// totals as its "simulated N of M dense-equivalent points" line.
//
// Searches can carry a *variant* axis on top of the search axis: the Eq 5
// crossover probes both policies at each candidate frequency and the
// objective sees all variant rows of the probe at once (rows[i] belongs to
// variants[i]).
//
// Failure is loud and structured (SearchError): an objective that is flat
// across the requested bracket, zero/non-finite at a probe, sign-reversed
// against a declared direction, or revealed non-monotone by the probe
// trail throws instead of silently returning a wrong root. Lattice
// searches additionally verify the found cell against its immediate
// neighbours (two extra probes) so a locally noisy flip cannot masquerade
// as the crossover. The refinement loop is the interval-contraction
// discipline of the quiescent engine's ICP planners (and of smtrat-style
// ICP modules) applied to the design axis: keep a certified-sign bracket,
// shrink it until it is below the axis tolerance, re-verify the invariant
// at every step.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "edc/sim/simulator.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

namespace edc::sweep {

// ---- structured failure ---------------------------------------------------

enum class SearchErrorKind {
  /// Objective has the same (nonzero) sign at both bracket endpoints —
  /// there is no crossing to find in the requested range.
  kNoBracket,
  /// Objective is exactly zero or non-finite at a probed point; a sign
  /// search cannot classify it. Bias the objective (e.g. "target + 0.5 -
  /// count" for integer metrics) so the crossing is a strict sign change.
  kDegenerate,
  /// The probe trail contradicts a single monotone crossing: sorted along
  /// the axis, the probed signs flip more than once.
  kNonMonotone,
  /// The bracket's sign change runs opposite to the declared
  /// SearchOptions::direction.
  kReversed,
  /// SearchOptions::max_probes exhausted before the bracket converged.
  kBudget,
};

/// Thrown by Search on any of the failure modes above. what() carries the
/// probed evidence (axis positions and objective values).
class SearchError : public std::runtime_error {
 public:
  SearchError(SearchErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] SearchErrorKind kind() const noexcept { return kind_; }

 private:
  SearchErrorKind kind_;
};

/// Human-readable name of a failure kind ("no-bracket", "degenerate", ...).
[[nodiscard]] const char* search_error_kind_name(SearchErrorKind kind) noexcept;

// ---- the query ------------------------------------------------------------

/// The continuous design axis a Search contracts over. `set` writes the
/// candidate value into a copy of the base spec — exactly like a
/// Grid::numeric_axis setter, so a probe's spec is byte-identical to the
/// dense grid point with the same value. `label` formats report/CSV labels
/// (default: "%g").
struct SearchAxis {
  std::string name;
  std::function<void(spec::SystemSpec&, double)> set;
  std::function<std::string(double)> label;
};

/// Scalar objective of one probe: sees the axis value and one SimResult
/// per variant (variant order). Must be a pure function of its arguments.
/// The search locates the strict sign change of this value along the axis.
using SearchObjective =
    std::function<double(double x, const std::vector<sim::SimResult>& rows)>;

/// One memoised probe of the axis.
struct SearchProbe {
  double x = 0.0;
  double value = 0.0;
  /// One row per variant, in variant order — bit-identical to the dense
  /// grid's rows at the same specs.
  std::vector<sim::SimResult> rows;
  std::size_t simulated = 0;  ///< rows simulated fresh by this probe
  std::size_t warm = 0;       ///< rows replayed from the cache
  /// Summed per-row cost (fresh rows: measured wall time; warm rows: the
  /// original cost replayed by the cache), microseconds.
  double micros = 0.0;
};

struct SearchOptions {
  /// Probes run through this Runner configuration; set runner.cache to
  /// memoise probes on disk (warm reruns then contract with 0 simulations).
  RunnerOptions runner;
  /// Hard probe budget; exhausted -> SearchError(kBudget).
  std::size_t max_probes = 128;
  /// Declared objective direction along the axis: +1 rising (negative
  /// below the crossing), -1 falling, 0 infer from the bracket endpoints.
  /// A declared direction turns a reversed-sign objective into a loud
  /// kReversed error instead of a silently mirrored answer.
  int direction = 0;
};

struct SearchOutcome {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Final certified bracket: value_lo and value_hi have strictly opposite
  /// signs and hi - lo is one lattice cell (bracket_on) or <= the requested
  /// tolerance (contract).
  double lo = 0.0;
  double hi = 0.0;
  double value_lo = 0.0;
  double value_hi = 0.0;
  /// Lattice searches: indices of lo/hi in the input lattice (npos for
  /// continuous contraction).
  std::size_t lo_index = npos;
  std::size_t hi_index = npos;
  /// Certified sign direction: +1 if the objective rises across the
  /// bracket (value_lo < 0 < value_hi), -1 if it falls.
  int direction = 0;
  /// Every distinct probe this operation used, in probe order (shared
  /// endpoint probes from earlier operations on the same Search included).
  std::vector<SearchProbe> probes;

  /// Cold/warm accounting over `probes`.
  [[nodiscard]] std::size_t probe_count() const noexcept { return probes.size(); }
  [[nodiscard]] std::size_t simulated_points() const noexcept;
  [[nodiscard]] std::size_t warm_points() const noexcept;
};

class Search {
 public:
  /// A query without variants: the objective sees exactly one row per
  /// probe.
  Search(spec::SystemSpec base, SearchAxis axis, SearchObjective objective,
         SearchOptions options = {});

  /// A query with a variant axis (e.g. the Eq 5 policy pair): each probe
  /// simulates every variant at the candidate axis value, mirroring a
  /// dense Grid with `axis` as the outer and `variants` as the inner axis.
  Search(spec::SystemSpec base, SearchAxis axis, std::string variant_axis_name,
         std::vector<AxisValue> variants, SearchObjective objective,
         SearchOptions options = {});

  /// Simulates (or replays) the probe at axis value `x`. Memoised: probing
  /// the same x twice costs nothing, not even cache I/O. Throws
  /// SearchError(kDegenerate) on a zero/non-finite objective and
  /// kBudget when the probe budget is exhausted.
  const SearchProbe& probe(double x);

  /// Discrete bisection over an ordered lattice of axis values: locates
  /// the adjacent pair (cell) where the objective's sign flips, probing
  /// O(log n) lattice points, then certifies the cell against its
  /// neighbours (two extra probes). The lattice must be strictly
  /// increasing with >= 2 values. This is the dense-grid replacement: the
  /// returned cell is provably the dense sweep's crossover cell as long as
  /// the objective is sign-monotone across the lattice — and a violation
  /// among the probed points throws kNonMonotone instead of guessing.
  SearchOutcome bracket_on(const std::vector<double>& lattice);

  /// Continuous interval contraction: verifies [lo, hi] brackets a sign
  /// change, then bisects until the bracket width is <= x_tol (or the
  /// float midpoint degenerates). Returns the final certified bracket.
  SearchOutcome contract(double lo, double hi, double x_tol);

  /// All distinct probes so far, in probe order (across operations).
  [[nodiscard]] const std::vector<SearchProbe>& probes() const noexcept {
    return probes_;
  }
  [[nodiscard]] std::size_t simulated_points() const noexcept;

  /// The dense grid this search replaces (same base spec, same axis
  /// mutators, same variants): its points' specs are byte-identical to
  /// probe specs at equal axis values — the bit-identity contract the
  /// search tests pin down.
  [[nodiscard]] Grid dense_grid(const std::vector<double>& lattice) const;

 private:
  /// Yields the next probe strictly inside the bracket (lo, hi), or
  /// nothing once the bracket has converged.
  using NextProbe = std::function<std::optional<double>(double lo, double hi)>;

  /// The bracketing both searches share: probes lo and hi, requires a sign
  /// change between them (in the declared direction, if any), then narrows
  /// the bracket at the probes `next` yields, re-verifying the trail after
  /// each. A non-empty `lattice` holds lo and hi; the final cell is then
  /// certified against its neighbours and its indices reported.
  SearchOutcome bracket(double lo, double hi, const NextProbe& next,
                        const std::vector<double>& lattice);

  /// Re-verifies the single-flip invariant over the whole probe trail
  /// (sorted by x, signs must change at most once); throws kNonMonotone.
  void verify_trail() const;

  /// Builds the one-value probe grid for axis value x.
  [[nodiscard]] Grid probe_grid(double x) const;

  [[noreturn]] void fail(SearchErrorKind kind, const std::string& detail) const;

  spec::SystemSpec base_;
  SearchAxis axis_;
  std::string variant_axis_name_;
  std::vector<AxisValue> variants_;
  SearchObjective objective_;
  SearchOptions options_;
  Runner runner_;

  std::vector<SearchProbe> probes_;          // probe order
  std::map<double, std::size_t> probe_at_;   // x -> index into probes_
};

}  // namespace edc::sweep
