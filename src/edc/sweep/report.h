// Sweep result reporting: grid rows into the existing sim::Table / CSV
// machinery.
//
// Every row carries the grid point's axis labels followed by the standard
// completion/energy metrics of its SimResult, in grid order.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "edc/sim/simulator.h"
#include "edc/sim/table.h"
#include "edc/sweep/grid.h"

namespace edc::sweep {

/// Axis names followed by the standard metric column names.
[[nodiscard]] std::vector<std::string> summary_header(const Grid& grid);

/// One table row: the point's axis labels + formatted metrics.
[[nodiscard]] std::vector<std::string> summary_row(const Point& point,
                                                   const sim::SimResult& result);

/// An aligned text table of the whole sweep (`results` in grid order, as
/// returned by Runner::run).
[[nodiscard]] sim::Table summary_table(const Grid& grid,
                                       const std::vector<sim::SimResult>& results);

/// CSV export of the same rows (numeric metrics unformatted; labels quoted
/// when they contain separators). Rows carry no timing, so a warm cached
/// rerun or a run at another thread count writes the same bytes; per-point
/// costs travel in RunReport (see sweep/runner.h).
void write_csv(std::ostream& out, const Grid& grid,
               const std::vector<sim::SimResult>& results);

}  // namespace edc::sweep
