// Output checks behind the failure count: run outside the timed job, one
// verdict per row the job produced.
//
//  * every row's energy ledger closes (common.h, ledger_closes);
//  * the warm leg replays every row byte-for-byte and simulates nothing
//    (cached_queries: and returns the same brackets);
//  * macro_scenarios: the first point of every family stays within the
//    macrodiff contract of a fine-stepped run of the same spec;
//  * fine_batch_sweep: batched rows are byte-equal to the scalar Runner's;
//  * cached_queries: the Eq 5 bracket lies inside the dense crossover cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace edcbench {

struct CheckReport {
  std::vector<std::vector<char>> row_failed;  ///< per unit, per row: 1 = failed
  std::vector<std::string> failures;          ///< one line per failed check
  double macro_energy_err = 0.0;  ///< largest relative energy gap, macro vs fine

  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;
};

[[nodiscard]] CheckReport check_job(Workload workload, const Setup& setup,
                                    const JobResult& cold, const JobResult& warm);

/// FNV-1a 64 over the canonical bytes (sim::serialize_result) of every
/// row, in job order: equal digests mean byte-identical results.
[[nodiscard]] std::uint64_t result_digest(const JobResult& job);

/// The macrodiff contract (tests/macro_step_test.cpp, expect_agreement):
/// equal event counts and transition sequences, end times within one dt,
/// transition times within 50 dt, energies within 1%, final node voltage
/// within 5 mV, both ledgers closed. Returns an empty string when `macro`
/// agrees with `fine`, else the first violation. `energy_err` receives the
/// largest relative energy gap.
[[nodiscard]] std::string macro_agreement(const edc::sim::SimResult& fine,
                                          const edc::sim::SimResult& macro,
                                          double dt, double capacitance,
                                          double& energy_err);

}  // namespace edcbench
