#include "checks.h"

#include <algorithm>
#include <cmath>
#include <exception>

#include "common.h"
#include "edc/sim/result_io.h"

namespace edcbench {

namespace sweep = edc::sweep;
using edc::sim::SimResult;

std::size_t CheckReport::attempted() const {
  std::size_t n = 0;
  for (const auto& unit : row_failed) n += unit.size();
  return n;
}

std::size_t CheckReport::failed() const {
  std::size_t n = 0;
  for (const auto& unit : row_failed) n += static_cast<std::size_t>(
      std::count(unit.begin(), unit.end(), 1));
  return n;
}

std::uint64_t result_digest(const JobResult& job) {
  std::uint64_t hash = fnv1a("");
  for (const UnitResult& unit : job) {
    for (const SimResult& row : unit.rows) {
      hash = fnv1a(edc::sim::serialize_result(row), hash);
    }
  }
  return hash;
}

std::string macro_agreement(const SimResult& fine, const SimResult& macro, double dt,
                            double capacitance, double& energy_err) {
  energy_err = 0.0;
  const auto& f = fine.mcu;
  const auto& m = macro.mcu;
  if (f.boots != m.boots || f.brownouts != m.brownouts ||
      f.saves_completed != m.saves_completed || f.restores != m.restores ||
      f.completed != m.completed) {
    return "event counts differ";
  }
  if (std::abs(fine.end_time - macro.end_time) > dt) return "end time differs";
  const double slack =
      50.0 * dt * static_cast<double>(std::max<std::uint64_t>(f.brownouts + 1, 1));
  if (std::abs(f.time_off - m.time_off) > slack ||
      std::abs(f.time_active - m.time_active) > slack) {
    return "off/active time split differs by more than 50 dt per power cycle";
  }
  const std::pair<double, double> energies[] = {
      {fine.harvested, macro.harvested},
      {fine.consumed, macro.consumed},
      {fine.dissipated, macro.dissipated},
      {f.energy_total(), m.energy_total()}};
  std::string violation;
  for (const auto& [reference, value] : energies) {
    const double gap = std::abs(value - reference);
    const double scale = std::abs(reference);
    if (scale > 1e-9) energy_err = std::max(energy_err, gap / scale);
    if (gap > std::max(scale * 0.01, 1e-9)) violation = "energy differs by more than 1%";
  }
  if (!violation.empty()) return violation;
  const auto volts = [capacitance](double stored) {
    return std::sqrt(std::max(2.0 * stored / capacitance, 0.0));
  };
  if (std::abs(volts(fine.stored_final) - volts(macro.stored_final)) > 5e-3) {
    return "final node voltage differs by more than 5 mV";
  }
  if (!ledger_closes(fine) || !ledger_closes(macro)) return "energy ledger does not close";
  if (fine.transitions.size() != macro.transitions.size()) {
    return "transition counts differ";
  }
  for (std::size_t i = 0; i < fine.transitions.size(); ++i) {
    const auto& a = fine.transitions[i];
    const auto& b = macro.transitions[i];
    if (a.from != b.from || a.to != b.to) return "transition sequences differ";
    if (std::abs(a.time - b.time) > 50.0 * dt) return "a transition moved by more than 50 dt";
  }
  return {};
}

namespace {

bool same_bytes(const SimResult& a, const SimResult& b) {
  return edc::sim::serialize_result(a) == edc::sim::serialize_result(b);
}

/// Marks every row of `unit` failed (a check that covers the whole unit).
void fail_unit(CheckReport& report, std::size_t unit, const std::string& why) {
  std::fill(report.row_failed[unit].begin(), report.row_failed[unit].end(), 1);
  report.failures.push_back(why);
}

void check_macro_references(const Setup& setup, const JobResult& cold,
                            CheckReport& report) {
  for (std::size_t f = 0; f < setup.families.size(); ++f) {
    if (cold[f].rows.empty()) continue;
    edc::spec::SystemSpec reference = setup.families[f].grid.point(0).spec;
    reference.sim.macro_stepping = false;
    double err = 0.0;
    std::string violation;
    try {
      auto system = edc::spec::instantiate(reference);
      violation = macro_agreement(system.run(), cold[f].rows[0], reference.sim.dt,
                                  reference.storage.capacitance, err);
    } catch (const std::exception& error) {
      violation = std::string("fine reference threw: ") + error.what();
    }
    report.macro_energy_err = std::max(report.macro_energy_err, err);
    if (!violation.empty()) {
      report.row_failed[f][0] = 1;
      report.failures.push_back(cold[f].name + ": macrodiff: " + violation);
    }
  }
}

void check_batch_against_scalar(const Setup& setup, const JobResult& cold,
                                CheckReport& report) {
  sweep::RunnerOptions options;
  options.threads = 1;
  const sweep::Runner scalar(options);
  for (std::size_t f = 0; f < setup.families.size(); ++f) {
    if (cold[f].rows.empty()) continue;
    std::vector<SimResult> rows;
    try {
      rows = scalar.run(setup.families[f].grid);
    } catch (const std::exception& error) {
      fail_unit(report, f, cold[f].name + ": scalar reference threw: " + error.what());
      continue;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!same_bytes(rows[i], cold[f].rows[i])) {
        report.row_failed[f][i] = 1;
        report.failures.push_back(cold[f].name + ": row " + std::to_string(i) +
                                  " differs from the scalar Runner's");
      }
    }
  }
}

void check_eq5_cell(const Setup& setup, const JobResult& cold, CheckReport& report) {
  for (std::size_t q = 0; q < setup.queries.size(); ++q) {
    if (setup.queries[q].name != "eq5_solve" || !cold[q].outcome.has_value()) continue;
    const std::vector<double> dense = eq5_dense_frequencies();
    sweep::Grid grid(setup.queries[q].base);
    grid.numeric_axis("f_interrupt (Hz)", dense, eq5_set_frequency)
        .axis("policy", eq5_policies());
    sweep::RunnerOptions options;
    options.threads = 1;
    const std::vector<SimResult> rows = sweep::Runner(options).run(grid);
    std::size_t first_qr_win = dense.size();
    for (std::size_t i = 0; i < dense.size(); ++i) {
      if (eq5_gap({rows[2 * i], rows[2 * i + 1]}) < 0.0) {
        first_qr_win = i;
        break;
      }
    }
    const auto& outcome = *cold[q].outcome;
    if (first_qr_win == 0 || first_qr_win == dense.size() ||
        outcome.lo < dense[first_qr_win - 1] || outcome.hi > dense[first_qr_win]) {
      fail_unit(report, q, "eq5_solve: bracket is not inside the dense crossover cell");
    }
  }
}

}  // namespace

CheckReport check_job(Workload workload, const Setup& setup, const JobResult& cold,
                      const JobResult& warm) {
  CheckReport report;
  for (std::size_t u = 0; u < cold.size(); ++u) {
    const UnitResult& unit = cold[u];
    // A unit that threw counts every row it owed as failed (a query owes
    // at least one probe).
    std::size_t owed = unit.rows.size();
    if (!unit.error.empty()) {
      owed = u < setup.families.size() ? setup.families[u].grid.size()
                                       : std::max<std::size_t>(owed, 1);
    }
    report.row_failed.emplace_back(owed, 0);
    if (!unit.error.empty()) {
      fail_unit(report, u, unit.name + ": threw: " + unit.error);
      continue;
    }
    for (std::size_t i = 0; i < unit.rows.size(); ++i) {
      if (!ledger_closes(unit.rows[i])) {
        report.row_failed[u][i] = 1;
        report.failures.push_back(unit.name + ": row " + std::to_string(i) +
                                  ": energy ledger does not close");
      }
    }
    const UnitResult& replay = warm[u];
    if (!replay.error.empty()) {
      fail_unit(report, u, unit.name + ": warm leg threw: " + replay.error);
      continue;
    }
    if (replay.fresh != 0) {
      fail_unit(report, u, unit.name + ": warm leg simulated " +
                               std::to_string(replay.fresh) + " points");
    }
    if (unit.outcome.has_value() &&
        (!replay.outcome.has_value() || replay.outcome->lo != unit.outcome->lo ||
         replay.outcome->hi != unit.outcome->hi)) {
      fail_unit(report, u, unit.name + ": warm leg returned another bracket");
    }
    if (replay.rows.size() != unit.rows.size()) {
      fail_unit(report, u, unit.name + ": warm leg returned another row count");
      continue;
    }
    for (std::size_t i = 0; i < unit.rows.size(); ++i) {
      if (!same_bytes(unit.rows[i], replay.rows[i])) {
        report.row_failed[u][i] = 1;
        report.failures.push_back(unit.name + ": row " + std::to_string(i) +
                                  ": warm bytes differ from cold");
      }
    }
  }
  switch (workload) {
    case Workload::macro_scenarios:
      check_macro_references(setup, cold, report);
      break;
    case Workload::fine_batch_sweep:
      check_batch_against_scalar(setup, cold, report);
      break;
    case Workload::cached_queries:
      check_eq5_cell(setup, cold, report);
      break;
  }
  return report;
}

}  // namespace edcbench
