// tsufail::testkit — the differential oracle.
//
// run_oracle() recomputes every analysis two ways — the naive reference
// (reference.h) and the LogIndex entry point — plus run_study at several
// thread counts (over the log, and over the index adopted from the log's
// packed snapshot), and structurally diffs the results.
// Exact fields (counts, enums, strings, orderings, identical-arithmetic
// doubles) must match to <= 4 ULPs; reassociation-prone doubles (Welford
// vs two-pass moments, chunked vs day-walk exposure, correlations over
// those) must match within 512 ULPs or 1e-9 relative.  Error outcomes
// must match in kind and message, verbatim, on every path.
//
// Each mismatch is reported as a path into the result struct
// ("ttr.summary.p95: reference=… study[jobs=8]=…"), so a red run names
// the exact field and code path that diverged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/log.h"

namespace tsufail::testkit {

/// True iff a and b are bitwise equal, within `max_ulps` representable
/// doubles of each other, or (when rel > 0) within `rel` relatively.
/// NaNs compare equal to NaNs; +0 and -0 are adjacent.
bool nearly_equal(double a, double b, std::int64_t max_ulps, double rel = 0.0) noexcept;

struct OracleOptions {
  /// Thread counts run_study is checked at (0 = hardware concurrency).
  std::vector<std::size_t> thread_counts{1, 2, 8};
};

struct OracleReport {
  /// One line per diverging field: "analysis.path: reference=… fast=…".
  std::vector<std::string> mismatches;

  bool ok() const noexcept { return mismatches.empty(); }
  /// Multi-line rendering, truncated to `max_lines` with a "+N more" tail.
  std::string str(std::size_t max_lines = 24) const;
};

/// Diffs every analysis (and run_study at every configured thread count)
/// against the naive reference for one log.  Handles logs where analyses
/// are undefined — including the empty log — by requiring identical
/// error behaviour instead.
OracleReport run_oracle(const data::FailureLog& log, const OracleOptions& options = {});

/// Property-runner adapter: nullopt when the oracle is clean, the diff
/// rendering otherwise.  Plug straight into check_property() to get
/// shrunk minimal counterexamples for oracle violations.
std::optional<std::string> oracle_property(const data::FailureLog& log);

}  // namespace tsufail::testkit
