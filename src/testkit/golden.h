// tsufail::testkit — golden-snapshot framework.
//
// Pins large rendered artifacts (the full markdown study report for the
// Tsubame-2/Tsubame-3 presets, and for Tsubame-3 scaled to fleet size)
// against checked-in golden files.  A mismatch prints a readable line
// diff; regeneration is one command:
//
//   TSUFAIL_UPDATE_GOLDEN=1 ctest -L golden
//
// which rewrites the golden files in place from the current output.
#pragma once

#include <optional>
#include <string>

#include "data/machine.h"
#include "util/error.h"

namespace tsufail::testkit {

/// Seed used for the golden preset logs.  Changing it invalidates every
/// golden file, so it is pinned here, once.
inline constexpr std::uint64_t kGoldenSeed = 0x60'1D'EE'D5;

/// Renders the deterministic golden artifact for one machine preset:
/// sim::generate_log(<preset model>, kGoldenSeed) fed through
/// report::render_markdown_report with default options (serial study).
/// Errors propagate from generation/rendering.
Result<std::string> golden_report_markdown(data::Machine machine);

/// Failures in the fleet-scale golden log: enough that every sample the
/// study sorts or fits there is far larger than any paper-scale one.
inline constexpr std::size_t kFleetGoldenFailures = 100000;

/// Renders the fleet-scale golden artifact: the Tsubame-3 model with
/// total_failures = kFleetGoldenFailures, generated from kGoldenSeed and
/// rendered like golden_report_markdown.  Errors as there.
Result<std::string> golden_fleet_report_markdown();

/// Renders the repair-policy-comparison golden for one machine preset:
/// a run_repair_policy_sweep over the default policy variants (6
/// replicates of the preset model from kGoldenSeed, serial) fed through
/// report::render_repair_comparison.  Deterministic by the sweep's
/// bit-identity contract; the golden test re-renders at jobs=2 to prove
/// it.
Result<std::string> golden_repairs_markdown(data::Machine machine, std::size_t jobs = 1);

/// Line-oriented diff of expected vs actual with `context` lines around
/// each hunk ("-" expected-only, "+" actual-only, " " common).  Empty
/// string when equal.
std::string diff_lines(const std::string& expected, const std::string& actual,
                       std::size_t context = 2);

/// True when TSUFAIL_UPDATE_GOLDEN is set to a non-empty, non-"0" value.
bool update_golden_requested();

/// Compares `actual` against the golden file at `path`.
///  - match          -> nullopt
///  - update mode    -> rewrites the file, returns nullopt
///  - missing file   -> instructions for generating it
///  - mismatch       -> readable diff plus the regeneration command
/// The returned string is ready to hand to a test failure message.
std::optional<std::string> check_golden(const std::string& path, const std::string& actual);

}  // namespace tsufail::testkit
