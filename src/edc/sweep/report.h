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
#include "edc/sweep/shard.h"

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
/// when they contain separators). Rows carry no timing, so a merged shard
/// run is byte-comparable with a serial one; per-point costs travel in
/// RunReport (see sweep/runner.h).
void write_csv(std::ostream& out, const Grid& grid,
               const std::vector<sim::SimResult>& results);

/// Per-shard CSV export: `results` holds the rows of the shard's owned
/// points in ascending global-index order (as returned by
/// Runner::run_shard). The file carries the shard metadata, the unsharded
/// header, and each row prefixed with its global index, so shards can be
/// merged back into exact grid order:
///
///   # edc-sweep-shard v1 shard <k>/<N> grid <size>
///   # header <unsharded CSV header line>
///   <global index>,<unsharded CSV row>
void write_shard_csv(std::ostream& out, const Grid& grid, const Shard& shard,
                     const std::vector<sim::SimResult>& results);

/// Per-shard CSV export for slice `shard_index` of an explicit
/// ShardAssignment (the cost-weighted LPT partitions of
/// ShardAssignment::balanced): identical layout to write_shard_csv but
/// tagged `v2`, whose ownership is carried entirely by the per-row global
/// indices instead of the striding rule — merge_shard_csvs accepts both
/// and still validates coverage and duplicates strictly. `results` holds
/// the slice's rows in its ascending global-index order (as returned by
/// Runner::run_assignment).
void write_assignment_shard_csv(std::ostream& out, const Grid& grid,
                                const ShardAssignment& assignment,
                                std::size_t shard_index,
                                const std::vector<sim::SimResult>& results);

/// Reassembles the shard CSV texts of a complete k/N partition into the
/// byte stream write_csv would have produced for the unsharded grid.
/// Throws std::invalid_argument when the shards disagree on grid size,
/// shard count or header, duplicate a point, or leave a point uncovered.
/// Striding (v1) shards additionally have their index-ownership rule
/// checked; assignment (v2) shards own whatever their rows name.
void merge_shard_csvs(const std::vector<std::string>& shard_csvs, std::ostream& out);

}  // namespace edc::sweep
