// sweep::Search — solver-guided design queries (sweep/search.h).
//
// The contract under test, in order of importance:
//
//  1. Equivalence: bracket_on() finds exactly the crossover cell a dense
//     sweep of the same lattice finds (several lattice shapes), while
//     probing strictly fewer points.
//  2. Bit-identity: a probe's rows are byte-identical (canonical result
//     serialization) to the dense grid's rows at the same axis value, and
//     a cached probe replays the same bytes — so a warm rerun of the same
//     query simulates ZERO points.
//  3. Loud failure: flat, sign-degenerate, reversed and non-monotone
//     objectives throw structured SearchErrors instead of returning a
//     plausible-but-wrong root; the neighbour-verification pass catches a
//     locally noisy flip plain bisection would silently step over.
//
// Synthetic-objective tests drive the control flow from the axis value
// (the objective sees x; the simulated rows are irrelevant) over a
// minimal DC spec whose simulations cost microseconds, so the error
// matrix stays cheap. The equivalence tests run the real Eq 5 objective
// (QuickRecall minus hibernus energy per Mcycle) on a shortened horizon.
#include "edc/sweep/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "edc/sim/result_io.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/runner.h"

namespace edc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test for cache-backed searches.
class SearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("edc_search_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// Microsecond-cheap base spec for synthetic-objective tests: a DC source
/// into a huge capacitance that never reaches turn-on within the 1 ms
/// horizon, so every probe is a few quiescent-path steps.
spec::SystemSpec tiny_spec() {
  spec::SystemSpec s;
  s.source = spec::DcSource{3.3};
  s.storage.capacitance = 10e-6;
  s.workload.kind = "fft";
  s.workload.seed = 1;
  s.sim.t_end = 1e-3;
  return s;
}

/// A numeric axis that routes x into the (irrelevant) bleed resistance —
/// the synthetic objectives read x, not the rows.
sweep::SearchAxis bleed_axis() {
  return {"bleed", [](spec::SystemSpec& s, double x) { s.storage.bleed = x; }, {}};
}

/// Objective computed from the axis value alone.
sweep::SearchObjective from_x(double (*fn)(double)) {
  return [fn](double x, const std::vector<sim::SimResult>&) { return fn(x); };
}

/// The Eq 5 bench's grid pieces (bench/eq5_crossover.cpp), shrunk to a 2 s
/// horizon: square supply frequency axis x {hibernus, quickrecall}.
spec::SystemSpec eq5_spec() {
  spec::SystemSpec s;
  s.storage.capacitance = 10e-6;
  s.storage.bleed = 1000.0;
  s.workload.kind = "fft";
  s.workload.seed = 5;
  s.sim.t_end = 2.0;
  return s;
}

sweep::SearchAxis eq5_axis() {
  return {"f_interrupt (Hz)",
          [](spec::SystemSpec& s, double f) {
            s.source = spec::SquareSource{3.3, f, 0.5, 0.0, 50.0};
          },
          {}};
}

std::vector<sweep::AxisValue> eq5_policies() {
  checkpoint::InterruptPolicy::Config config;
  config.margin = 3.0;
  config.restore_headroom = 0.15;
  return {{"hibernus",
           [config](spec::SystemSpec& s) { s.policy = spec::Hibernus{config}; }},
          {"quickrecall",
           [config](spec::SystemSpec& s) { s.policy = spec::QuickRecall{config}; }}};
}

double eq5_joules_per_mcycle(const sim::SimResult& result) {
  if (result.mcu.forward_cycles <= 1000.0) {
    return std::numeric_limits<double>::infinity();
  }
  return result.mcu.energy_total() / (result.mcu.forward_cycles / 1e6);
}

double eq5_objective(const std::vector<sim::SimResult>& rows) {
  return eq5_joules_per_mcycle(rows[1]) - eq5_joules_per_mcycle(rows[0]);
}

sweep::Search make_eq5_search(sweep::SearchOptions options = {}) {
  return sweep::Search(
      eq5_spec(), eq5_axis(), "policy", eq5_policies(),
      [](double, const std::vector<sim::SimResult>& rows) {
        return eq5_objective(rows);
      },
      options);
}

/// The Eq 5 frequency lattice from 5 Hz to 320 Hz at `per_octave` points
/// per octave. The dense bench's seven frequencies are its exact
/// floating-point sub-lattice (ldexp keeps 5 * 2^k exact; pow(2, 0) == 1),
/// so probes at shared frequencies hit the dense grid's cache keys.
std::vector<double> eq5_lattice(int per_octave) {
  std::vector<double> lattice;
  for (int i = 0; i <= 6 * per_octave; ++i) {
    lattice.push_back(std::ldexp(5.0, i / per_octave) *
                      std::pow(2.0, (i % per_octave) / double(per_octave)));
  }
  return lattice;
}

/// The dense reference: simulate every lattice frequency and scan for the
/// first sign flip of the objective, returning the flip cell's indices.
std::pair<std::size_t, std::size_t> dense_crossover_cell(
    const std::vector<double>& lattice) {
  sweep::Grid grid(eq5_spec());
  const sweep::SearchAxis axis = eq5_axis();
  grid.numeric_axis(axis.name, lattice, axis.set).axis("policy", eq5_policies());
  const auto rows = sweep::Runner().run(grid);
  std::size_t flip = 0;
  int previous = 0;
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    const double value =
        eq5_objective({rows[i * 2], rows[i * 2 + 1]});
    const int sign = value > 0.0 ? 1 : -1;
    if (i > 0 && sign != previous && flip == 0) flip = i;
    previous = sign;
  }
  EXPECT_GT(flip, 0u) << "dense sweep found no crossover";
  return {flip - 1, flip};
}

// ---- 1. equivalence with the dense sweep ----------------------------------

// Three lattice shapes over the same frequency range: the bench's 7 dense
// values, a 13-value (4 per octave) and a 49-value (8 per octave)
// refinement. The solver must locate exactly the cell the dense scan of
// the same lattice locates, in strictly fewer simulations. On the 49-value
// lattice it must simulate at most 24 of the 98 dense-equivalent points
// (25%; it simulates 16) — the O(log)-vs-O(grid) claim as a probe budget.
TEST_F(SearchTest, FindsDenseCrossoverCellAcrossLatticeShapes) {
  for (const std::vector<double>& lattice :
       {std::vector<double>{5, 10, 20, 40, 80, 160, 320}, eq5_lattice(4),
        eq5_lattice(8)}) {
    SCOPED_TRACE("lattice size " + std::to_string(lattice.size()));
    const auto [dense_lo, dense_hi] = dense_crossover_cell(lattice);

    sweep::Search search = make_eq5_search();
    const sweep::SearchOutcome outcome = search.bracket_on(lattice);
    EXPECT_EQ(outcome.lo_index, dense_lo);
    EXPECT_EQ(outcome.hi_index, dense_hi);
    EXPECT_EQ(outcome.lo, lattice[dense_lo]);
    EXPECT_EQ(outcome.hi, lattice[dense_hi]);
    EXPECT_EQ(outcome.direction, -1);  // hibernus wins low f: falling
    EXPECT_LT(outcome.probe_count(), lattice.size());
    EXPECT_LT(outcome.simulated_points(), lattice.size() * 2);
    EXPECT_EQ(outcome.warm_points(), 0u);
    if (lattice.size() == 49) {
      EXPECT_LE(outcome.simulated_points(), 24u);
    }
  }
}

// ---- 2. bit-identity and warm reruns --------------------------------------

// A probe's rows must serialize to the same bytes as the dense grid's rows
// at the same axis value — the "probes go through the ordinary grid path"
// contract that makes solver results trustworthy stand-ins for sweep rows.
TEST_F(SearchTest, ProbeRowsByteIdenticalToDenseRows) {
  const std::vector<double> lattice = {5, 10, 20, 40, 80, 160, 320};

  sweep::Search search = make_eq5_search();
  const sweep::SearchOutcome outcome = search.bracket_on(lattice);

  sweep::Grid dense = search.dense_grid(lattice);
  const auto dense_rows = sweep::Runner().run(dense);
  for (const sweep::SearchProbe& probe : outcome.probes) {
    const auto at = std::find(lattice.begin(), lattice.end(), probe.x);
    ASSERT_NE(at, lattice.end());
    const std::size_t f = static_cast<std::size_t>(at - lattice.begin());
    ASSERT_EQ(probe.rows.size(), 2u);
    for (std::size_t v = 0; v < 2; ++v) {
      EXPECT_EQ(sim::serialize_result(probe.rows[v]),
                sim::serialize_result(dense_rows[f * 2 + v]))
          << "f = " << probe.x << " variant " << v;
    }
  }
}

// A rerun of the same query against the same cache must not simulate a
// single point — and must still return byte-identical rows — on the dense
// bench's lattice and on the 49-value refinement.
TEST_F(SearchTest, WarmRerunSimulatesZeroPoints) {
  for (const std::vector<double>& lattice :
       {std::vector<double>{5, 10, 20, 40, 80, 160, 320}, eq5_lattice(8)}) {
    SCOPED_TRACE("lattice size " + std::to_string(lattice.size()));
    sweep::Cache cache((dir_ / std::to_string(lattice.size())).string());
    sweep::SearchOptions options;
    options.runner.cache = &cache;

    sweep::Search cold = make_eq5_search(options);
    const sweep::SearchOutcome first = cold.bracket_on(lattice);
    EXPECT_GT(first.simulated_points(), 0u);
    EXPECT_EQ(first.warm_points(), 0u);

    sweep::Search warm = make_eq5_search(options);
    const sweep::SearchOutcome second = warm.bracket_on(lattice);
    EXPECT_EQ(second.simulated_points(), 0u);
    EXPECT_EQ(second.warm_points(), first.simulated_points());
    EXPECT_EQ(second.lo_index, first.lo_index);
    EXPECT_EQ(second.hi_index, first.hi_index);
    ASSERT_EQ(second.probes.size(), first.probes.size());
    for (std::size_t i = 0; i < first.probes.size(); ++i) {
      ASSERT_EQ(first.probes[i].rows.size(), second.probes[i].rows.size());
      for (std::size_t v = 0; v < first.probes[i].rows.size(); ++v) {
        EXPECT_EQ(sim::serialize_result(first.probes[i].rows[v]),
                  sim::serialize_result(second.probes[i].rows[v]));
      }
    }
  }
}

// Probing the same x twice on one Search costs nothing the second time
// (memoised above the cache), and results accumulate across operations.
TEST_F(SearchTest, ProbesAreMemoised) {
  sweep::Search search(tiny_spec(), bleed_axis(),
                       from_x(+[](double x) { return 50.0 - x; }));
  search.probe(10.0);
  EXPECT_EQ(search.simulated_points(), 1u);
  search.probe(10.0);
  EXPECT_EQ(search.simulated_points(), 1u);
  EXPECT_EQ(search.probes().size(), 1u);
}

// ---- continuous contraction ------------------------------------------------

TEST_F(SearchTest, ContractConvergesToTolerance) {
  sweep::Search search(tiny_spec(), bleed_axis(),
                       from_x(+[](double x) { return 37.25 - x; }));
  const sweep::SearchOutcome outcome = search.contract(1.0, 1000.0, 0.5);
  EXPECT_LE(outcome.hi - outcome.lo, 0.5);
  EXPECT_LE(outcome.lo, 37.25);
  EXPECT_GE(outcome.hi, 37.25);
  EXPECT_EQ(outcome.direction, -1);
  EXPECT_GT(outcome.value_lo, 0.0);
  EXPECT_LT(outcome.value_hi, 0.0);
  EXPECT_EQ(outcome.lo_index, sweep::SearchOutcome::npos);
  // 2 endpoints + at most ceil(log2(range / tol)) bisection probes — the
  // O(log(range/tol)) contract.
  const auto budget =
      2u + static_cast<std::size_t>(std::ceil(std::log2(999.0 / 0.5)));
  EXPECT_LE(outcome.probe_count(), budget);
  EXPECT_GE(outcome.probe_count(), 4u);
}

// ---- 3. the failure matrix -------------------------------------------------

TEST_F(SearchTest, FlatObjectiveThrowsNoBracket) {
  sweep::Search search(tiny_spec(), bleed_axis(),
                       from_x(+[](double) { return 1.0; }));
  try {
    search.bracket_on({1, 2, 4, 8, 16});
    FAIL() << "expected SearchError";
  } catch (const sweep::SearchError& error) {
    EXPECT_EQ(error.kind(), sweep::SearchErrorKind::kNoBracket);
    EXPECT_NE(std::string(error.what()).find("no-bracket"), std::string::npos);
  }
  EXPECT_EQ(search.simulated_points(), 2u);  // endpoints only
}

TEST_F(SearchTest, ZeroObjectiveThrowsDegenerate) {
  sweep::Search search(tiny_spec(), bleed_axis(),
                       from_x(+[](double x) { return x - 1.0; }));
  try {
    search.bracket_on({1, 2, 4, 8});  // objective is exactly 0 at x = 1
    FAIL() << "expected SearchError";
  } catch (const sweep::SearchError& error) {
    EXPECT_EQ(error.kind(), sweep::SearchErrorKind::kDegenerate);
  }
}

TEST_F(SearchTest, NonFiniteObjectiveThrowsDegenerate) {
  sweep::Search search(tiny_spec(), bleed_axis(), from_x(+[](double x) {
                         return x < 5.0 ? std::numeric_limits<double>::quiet_NaN()
                                        : 1.0;
                       }));
  EXPECT_THROW(search.bracket_on({1, 2, 4, 8}), sweep::SearchError);
}

TEST_F(SearchTest, ReversedSignThrowsWithDeclaredDirection) {
  sweep::SearchOptions options;
  options.direction = -1;  // declared falling...
  sweep::Search search(tiny_spec(), bleed_axis(),
                       from_x(+[](double x) { return x - 50.0; }),  // ...rises
                       options);
  try {
    search.bracket_on({1, 2, 4, 8, 16, 32, 64, 128});
    FAIL() << "expected SearchError";
  } catch (const sweep::SearchError& error) {
    EXPECT_EQ(error.kind(), sweep::SearchErrorKind::kReversed);
  }
}

TEST_F(SearchTest, UndeclaredDirectionAcceptsEitherOrientation) {
  sweep::Search rising(tiny_spec(), bleed_axis(),
                       from_x(+[](double x) { return x - 50.0; }));
  EXPECT_EQ(rising.bracket_on({1, 2, 4, 8, 16, 32, 64, 128}).direction, 1);
  sweep::Search falling(tiny_spec(), bleed_axis(),
                        from_x(+[](double x) { return 50.0 - x; }));
  EXPECT_EQ(falling.bracket_on({1, 2, 4, 8, 16, 32, 64, 128}).direction, -1);
}

// A locally noisy flip that plain bisection steps over: positive up to 7,
// negative beyond — except a positive blip at exactly 9. Bisection lands
// on cell (9, 10); the neighbour pass probes 8, the trail reads
// ... 7:+ 8:- 9:+ 10:- ... (two flips), and the search fails loudly
// instead of certifying the wrong cell.
double noisy_flip(double x) {
  if (x == 9.0) return 1.0;
  return x < 7.5 ? 1.0 : -1.0;
}

TEST_F(SearchTest, NeighborVerificationCatchesNoisyFlip) {
  std::vector<double> lattice;
  for (int i = 0; i <= 15; ++i) lattice.push_back(i + 1.0);

  sweep::Search search(tiny_spec(), bleed_axis(), from_x(&noisy_flip));
  try {
    search.bracket_on(lattice);
    FAIL() << "expected SearchError";
  } catch (const sweep::SearchError& error) {
    EXPECT_EQ(error.kind(), sweep::SearchErrorKind::kNonMonotone);
  }
}

TEST_F(SearchTest, ExhaustedBudgetThrows) {
  sweep::SearchOptions options;
  options.max_probes = 4;
  sweep::Search search(tiny_spec(), bleed_axis(),
                       from_x(+[](double x) { return 500.0 - x; }), options);
  try {
    search.contract(1.0, 1000.0, 1e-6);
    FAIL() << "expected SearchError";
  } catch (const sweep::SearchError& error) {
    EXPECT_EQ(error.kind(), sweep::SearchErrorKind::kBudget);
  }
  EXPECT_EQ(search.probes().size(), 4u);
}

TEST_F(SearchTest, RejectsMalformedLattices) {
  sweep::Search search(tiny_spec(), bleed_axis(),
                       from_x(+[](double x) { return 50.0 - x; }));
  EXPECT_THROW(search.bracket_on({1.0}), std::invalid_argument);
  EXPECT_THROW(search.bracket_on({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(search.bracket_on({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(search.contract(5.0, 5.0, 0.1), std::invalid_argument);
  EXPECT_THROW(search.contract(1.0, 5.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace edc
