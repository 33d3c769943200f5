#include "edc/sweep/search.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "edc/common/check.h"

namespace edc::sweep {

namespace {

std::string format_value(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", x);
  return buffer;
}

int sign_of(double value) { return value > 0.0 ? 1 : -1; }

/// Index of `x` in a strictly increasing lattice that holds it.
std::size_t lattice_index(const std::vector<double>& lattice, double x) {
  return static_cast<std::size_t>(
      std::lower_bound(lattice.begin(), lattice.end(), x) - lattice.begin());
}

}  // namespace

const char* search_error_kind_name(SearchErrorKind kind) noexcept {
  switch (kind) {
    case SearchErrorKind::kNoBracket:
      return "no-bracket";
    case SearchErrorKind::kDegenerate:
      return "degenerate";
    case SearchErrorKind::kNonMonotone:
      return "non-monotone";
    case SearchErrorKind::kReversed:
      return "reversed";
    case SearchErrorKind::kBudget:
      return "budget";
  }
  return "unknown";
}

std::size_t SearchOutcome::simulated_points() const noexcept {
  std::size_t n = 0;
  for (const SearchProbe& probe : probes) n += probe.simulated;
  return n;
}

std::size_t SearchOutcome::warm_points() const noexcept {
  std::size_t n = 0;
  for (const SearchProbe& probe : probes) n += probe.warm;
  return n;
}

Search::Search(spec::SystemSpec base, SearchAxis axis, SearchObjective objective,
               SearchOptions options)
    : Search(std::move(base), std::move(axis), std::string(), {},
             std::move(objective), std::move(options)) {}

Search::Search(spec::SystemSpec base, SearchAxis axis,
               std::string variant_axis_name, std::vector<AxisValue> variants,
               SearchObjective objective, SearchOptions options)
    : base_(std::move(base)),
      axis_(std::move(axis)),
      variant_axis_name_(std::move(variant_axis_name)),
      variants_(std::move(variants)),
      objective_(std::move(objective)),
      options_(std::move(options)),
      runner_(options_.runner) {
  EDC_CHECK(static_cast<bool>(axis_.set), "search axis needs a setter");
  EDC_CHECK(!axis_.name.empty(), "search axis needs a name");
  EDC_CHECK(static_cast<bool>(objective_), "search needs an objective");
  EDC_CHECK(variant_axis_name_.empty() == variants_.empty(),
            "variant axis name and values go together");
  EDC_CHECK(options_.max_probes >= 2, "a bracket needs at least two probes");
  EDC_CHECK(options_.direction >= -1 && options_.direction <= 1,
            "direction must be -1, 0 or +1");
}

Grid Search::probe_grid(double x) const { return dense_grid({x}); }

Grid Search::dense_grid(const std::vector<double>& lattice) const {
  Grid grid(base_);
  grid.numeric_axis(axis_.name, lattice, axis_.set, axis_.label);
  if (!variants_.empty()) grid.axis(variant_axis_name_, variants_);
  return grid;
}

const SearchProbe& Search::probe(double x) {
  if (const auto it = probe_at_.find(x); it != probe_at_.end()) {
    return probes_[it->second];
  }
  if (probes_.size() >= options_.max_probes) {
    fail(SearchErrorKind::kBudget,
         "probe budget of " + std::to_string(options_.max_probes) +
             " exhausted before the bracket converged");
  }

  const Grid grid = probe_grid(x);
  RunReport report;
  SearchProbe probe;
  probe.x = x;
  probe.rows = runner_.run(grid, &report);
  for (std::size_t i = 0; i < probe.rows.size(); ++i) {
    probe.micros += report.micros[i];
    if (report.origin[i] == kOriginWarm) {
      ++probe.warm;
    } else {
      ++probe.simulated;
    }
  }
  probe.value = objective_(x, probe.rows);
  if (!std::isfinite(probe.value) || probe.value == 0.0) {
    fail(SearchErrorKind::kDegenerate,
         "objective is " + format_value(probe.value) + " at " + axis_.name +
             " = " + format_value(x) +
             "; a sign search needs strictly nonzero finite values (bias "
             "integer objectives by 0.5)");
  }

  probes_.push_back(std::move(probe));
  probe_at_[x] = probes_.size() - 1;
  return probes_.back();
}

void Search::verify_trail() const {
  std::vector<const SearchProbe*> trail;
  trail.reserve(probes_.size());
  for (const SearchProbe& probe : probes_) trail.push_back(&probe);
  std::sort(trail.begin(), trail.end(),
            [](const SearchProbe* a, const SearchProbe* b) { return a->x < b->x; });
  std::size_t flips = 0;
  for (std::size_t i = 1; i < trail.size(); ++i) {
    if (sign_of(trail[i - 1]->value) != sign_of(trail[i]->value)) ++flips;
  }
  if (flips > 1) {
    std::ostringstream detail;
    detail << "objective sign flips " << flips
           << " times across the probe trail; a bracketed search needs a "
              "single monotone crossing";
    fail(SearchErrorKind::kNonMonotone, detail.str());
  }
}

SearchOutcome Search::bracket(double lo, double hi, const NextProbe& next,
                              const std::vector<double>& lattice) {
  // Every probe this operation touches, in first-touch order — including
  // memoised probes shared with earlier operations on this Search. probe()
  // rejects zero/non-finite values up front, so every sign is +1 or -1.
  std::vector<std::size_t> touched;
  const auto touch = [&](double x) {
    const int sign = sign_of(probe(x).value);
    const std::size_t index = probe_at_.at(x);
    if (std::find(touched.begin(), touched.end(), index) == touched.end()) {
      touched.push_back(index);
    }
    return sign;
  };

  const int sign_lo = touch(lo);
  const int sign_hi = touch(hi);
  if (sign_lo == sign_hi) {
    fail(SearchErrorKind::kNoBracket,
         "objective has sign " + std::string(sign_lo > 0 ? "+" : "-") +
             " at both ends of [" + format_value(lo) + ", " + format_value(hi) +
             "]");
  }
  if (options_.direction != 0 && sign_hi != options_.direction) {
    fail(SearchErrorKind::kReversed,
         "bracket crosses " + std::string(sign_lo > 0 ? "+ to -" : "- to +") +
             " but the declared direction is " +
             std::string(options_.direction > 0 ? "rising" : "falling"));
  }

  while (const std::optional<double> mid = next(lo, hi)) {
    if (touch(*mid) == sign_lo) {
      lo = *mid;
    } else {
      hi = *mid;
    }
    verify_trail();
  }

  SearchOutcome outcome;
  if (!lattice.empty()) {
    // Certify the cell against its immediate neighbours: a locally noisy
    // flip adjacent to the found cell now lands in the probe trail, where
    // the single-flip invariant catches it.
    outcome.lo_index = lattice_index(lattice, lo);
    outcome.hi_index = lattice_index(lattice, hi);
    if (outcome.lo_index > 0) touch(lattice[outcome.lo_index - 1]);
    if (outcome.hi_index + 1 < lattice.size()) touch(lattice[outcome.hi_index + 1]);
    verify_trail();
  }
  outcome.lo = lo;
  outcome.hi = hi;
  outcome.value_lo = probes_[probe_at_.at(lo)].value;
  outcome.value_hi = probes_[probe_at_.at(hi)].value;
  outcome.direction = sign_hi;
  outcome.probes.reserve(touched.size());
  for (const std::size_t index : touched) outcome.probes.push_back(probes_[index]);
  return outcome;
}

SearchOutcome Search::bracket_on(const std::vector<double>& lattice) {
  EDC_CHECK(lattice.size() >= 2, "a lattice search needs at least two values");
  for (std::size_t i = 1; i < lattice.size(); ++i) {
    EDC_CHECK(lattice[i - 1] < lattice[i], "lattice must be strictly increasing");
  }
  // Bisect the index range: the next probe is the middle lattice point
  // of the bracket, until the bracket is one cell.
  const auto next = [&lattice](double lo, double hi) -> std::optional<double> {
    const std::size_t i = lattice_index(lattice, lo);
    const std::size_t j = lattice_index(lattice, hi);
    if (j - i <= 1) return std::nullopt;
    return lattice[i + (j - i) / 2];
  };
  return bracket(lattice.front(), lattice.back(), next, lattice);
}

SearchOutcome Search::contract(double lo, double hi, double x_tol) {
  EDC_CHECK(lo < hi, "contract needs lo < hi");
  EDC_CHECK(x_tol > 0.0, "contract needs a positive tolerance");
  // Bisect until the bracket is within x_tol or the float midpoint no
  // longer falls strictly inside it.
  const auto next = [x_tol](double lo, double hi) -> std::optional<double> {
    const double mid = lo + (hi - lo) / 2.0;
    if (!(hi - lo > x_tol && mid > lo && mid < hi)) return std::nullopt;
    return mid;
  };
  return bracket(lo, hi, next, {});
}

std::size_t Search::simulated_points() const noexcept {
  std::size_t n = 0;
  for (const SearchProbe& probe : probes_) n += probe.simulated;
  return n;
}

void Search::fail(SearchErrorKind kind, const std::string& detail) const {
  std::ostringstream message;
  message << "sweep::Search[" << axis_.name << "] "
          << search_error_kind_name(kind) << ": " << detail;
  if (!probes_.empty()) {
    std::vector<const SearchProbe*> trail;
    trail.reserve(probes_.size());
    for (const SearchProbe& probe : probes_) trail.push_back(&probe);
    std::sort(trail.begin(), trail.end(), [](const SearchProbe* a,
                                             const SearchProbe* b) {
      return a->x < b->x;
    });
    message << "; probed";
    for (const SearchProbe* probe : trail) {
      message << " (" << format_value(probe->x) << " -> "
              << format_value(probe->value) << ")";
    }
  }
  throw SearchError(kind, message.str());
}

}  // namespace edc::sweep
