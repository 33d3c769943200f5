#include "edc/sweep/report.h"

#include <ostream>

#include "edc/common/check.h"

namespace edc::sweep {

namespace {

const char* const kMetricColumns[] = {"done",     "t_done (s)", "brownouts",
                                      "saves",    "restores",   "energy (mJ)",
                                      "harvested (mJ)"};

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::vector<std::string> summary_header(const Grid& grid) {
  std::vector<std::string> header;
  header.reserve(grid.axes().size() + std::size(kMetricColumns));
  for (const auto& axis : grid.axes()) header.push_back(axis.name);
  for (const char* column : kMetricColumns) header.emplace_back(column);
  return header;
}

std::vector<std::string> summary_row(const Point& point,
                                     const sim::SimResult& result) {
  std::vector<std::string> row = point.labels;
  const auto& m = result.mcu;
  row.push_back(m.completed ? "yes" : "NO");
  row.push_back(m.completed ? sim::Table::num(m.completion_time, 2) : "-");
  row.push_back(std::to_string(m.brownouts));
  row.push_back(std::to_string(m.saves_completed));
  row.push_back(std::to_string(m.restores));
  row.push_back(sim::Table::num(m.energy_total() * 1e3, 3));
  row.push_back(sim::Table::num(result.harvested * 1e3, 3));
  return row;
}

sim::Table summary_table(const Grid& grid,
                         const std::vector<sim::SimResult>& results) {
  EDC_CHECK(results.size() == grid.size(),
            "result rows do not match the grid size");
  sim::Table table(summary_header(grid));
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.add_row(summary_row(grid.point(i), results[i]));
  }
  return table;
}

void write_csv(std::ostream& out, const Grid& grid,
               const std::vector<sim::SimResult>& results) {
  EDC_CHECK(results.size() == grid.size(),
            "result rows do not match the grid size");
  for (const auto& axis : grid.axes()) out << csv_escape(axis.name) << ',';
  out << "done,t_done_s,brownouts,saves,restores,energy_j,harvested_j\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Point point = grid.point(i);
    for (const auto& label : point.labels) out << csv_escape(label) << ',';
    const auto& m = results[i].mcu;
    out << (m.completed ? 1 : 0) << ',' << m.completion_time << ',' << m.brownouts
        << ',' << m.saves_completed << ',' << m.restores << ',' << m.energy_total()
        << ',' << results[i].harvested << '\n';
  }
}

}  // namespace edc::sweep
