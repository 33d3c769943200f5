#include "edc/trace/csv.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "edc/common/check.h"

namespace edc::trace {

namespace {

/// Appends `x` in its shortest round-trip form, so read_csv recovers the
/// exact double (and a long trace keeps strictly increasing timestamps).
void put_number(std::ostream& out, double x) {
  char buffer[32];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer), x);
  EDC_ASSERT(error == std::errc());
  out.write(buffer, end - buffer);
}

/// Parses a whole CSV field as a double: surrounding spaces, tabs and a
/// trailing '\r' are allowed, anything else left unparsed is not.
bool parse_field(std::string_view field, double& value) {
  const auto first = field.find_first_not_of(" \t");
  if (first == std::string_view::npos) return false;
  const auto last = field.find_last_not_of(" \t\r");
  const char* begin = field.data() + first;
  const char* end = field.data() + last + 1;
  const auto [stop, error] = std::from_chars(begin, end, value);
  return error == std::errc() && stop == end;
}

}  // namespace

void write_csv(std::ostream& out, const TraceSet& traces) {
  EDC_CHECK(!traces.waves.empty(), "empty trace set");
  out << "time";
  for (const auto& name : traces.names) out << ',' << name;
  out << '\n';
  const Waveform& grid = traces.waves.front();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Seconds t = grid.t0() + grid.dt() * static_cast<double>(i);
    put_number(out, t);
    for (const auto& wave : traces.waves) {
      out << ',';
      // A wave on the grid itself is written as sampled: interpolating it
      // at its own instants would perturb the values by rounding.
      const bool on_grid = wave.t0() == grid.t0() && wave.dt() == grid.dt() &&
                           i < wave.size();
      put_number(out, on_grid ? wave.samples()[i] : wave.at(t));
    }
    out << '\n';
  }
}

void write_csv(std::ostream& out, const std::string& name, const Waveform& wave) {
  TraceSet set;
  set.add(name, wave);
  write_csv(out, set);
}

Waveform read_csv(std::istream& in) {
  std::vector<double> times;
  std::vector<double> values;
  std::string line;
  for (std::size_t row = 1; std::getline(in, line); ++row) {
    const std::string_view text(line);
    if (text.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    const auto comma = text.find(',');
    double t = 0.0;
    if (!parse_field(text.substr(0, comma), t)) {
      // A header (any row without a numeric time) is only tolerated before
      // the data begins.
      EDC_CHECK(times.empty(), "malformed CSV row " + std::to_string(row) +
                                   " after data began: " + line);
      continue;
    }
    std::string_view value_field;  // the second column; empty when missing
    if (comma != std::string_view::npos) {
      value_field = text.substr(comma + 1);
      value_field = value_field.substr(0, value_field.find(','));
    }
    double v = 0.0;
    EDC_CHECK(parse_field(value_field, v), "CSV row " + std::to_string(row) +
                                               " has a missing or malformed value: " + line);
    times.push_back(t);
    values.push_back(v);
  }
  EDC_CHECK(times.size() >= 2, "CSV must contain at least two data rows");
  const double dt = times[1] - times[0];
  EDC_CHECK(dt > 0.0, "CSV time column must be increasing");
  for (std::size_t i = 2; i < times.size(); ++i) {
    const double step = times[i] - times[i - 1];
    EDC_CHECK(std::abs(step - dt) <= 1e-9 * std::max(1.0, std::abs(dt)) + 1e-12,
              "CSV time column must be uniformly spaced");
  }
  return Waveform(times.front(), dt, std::move(values));
}

}  // namespace edc::trace
