// Seeded workload inputs.  Every input is a pure function of the
// benchmark seed; the program under test only ever sees them as files or
// protocol lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/log.h"

namespace perfbench {

using tsufail::data::FailureLog;

/// Records in the fleet-scale log the analyze workloads read.
constexpr std::size_t kFleetRecords = 1'000'000;
/// Tenants in the serve replay (alternating Tsubame-2 / Tsubame-3): their
/// 4200 (tenant, key) answers overflow the service's 256-entry cache.  A
/// replay of 300 takes about 1.4 s, so a 20 s run takes the median of a
/// dozen replay processes.  At 1200 tenants a run held three, too few to
/// keep the figure within its bound from run to run on a shared host.
constexpr std::size_t kFleetTenants = 300;
/// Each fresh QUERY is followed by this many repeats (polling dashboard):
/// one miss in kQueryRepeats + 1 queries puts p50 among the hits and p99
/// among the misses.
constexpr std::size_t kQueryRepeats = 3;

/// The Tsubame-3 model scaled to `records` failures, generated from
/// `seed` and made CSV-exact (see canonical()).
FailureLog scaled_log(std::uint64_t seed, std::size_t records);

/// A paper-scale (calibrated size) log of one machine from `seed`.
FailureLog paper_log(std::uint64_t seed, bool tsubame2);

/// One serve tenant: its protocol name, machine token and rows.
struct TenantInput {
  std::string name;
  std::string machine;  ///< "tsubame-2" / "tsubame-3"
  FailureLog log;
};

/// `count` tenants alternating Tsubame-2 and Tsubame-3, each generated
/// from its own fork of `seed` so tenants share no data.
std::vector<TenantInput> fleet_tenants(std::uint64_t seed, std::size_t count);

/// The headerless canonical CSV rows of a log (what `EVENT` carries).
std::vector<std::string> csv_rows(const FailureLog& log);

/// The protocol script of one replay: every tenant's rows as interleaved
/// EVENT lines in three thirds, a SEAL for every tenant after each third,
/// then a query pass over every tenant and every FleetService key, each
/// fresh QUERY repeated kQueryRepeats times.  Every line ends in '\n'.
std::vector<std::string> replay_script(const std::vector<TenantInput>& tenants);

/// `tsufail analyze` text for a log held in memory (run_study + render).
std::string study_text(const FailureLog& log, std::size_t jobs);

}  // namespace perfbench
