// Node survival analysis: a censoring-aware extension of RQ2.
//
// Figure 4 counts failures per node but ignores time: a node that failed
// once on the last day had no chance to become a repeat offender.  The
// survival view fixes that: time-to-first-failure across all nodes
// (never-failed nodes right-censored at window end), time from first to
// second failure across failed nodes, and a log-rank test of the paper's
// repeat-failure claim — "a node that has failed fails again sooner than
// a fresh node fails at all".
#pragma once

#include <optional>

#include "data/log_index.h"
#include "stats/survival.h"

namespace tsufail::analysis {

struct NodeSurvival {
  /// Time (hours since window start... per node: hours until its first
  /// failure), censored at the window end for nodes that never failed.
  stats::SurvivalCurve first_failure;
  double fraction_never_failed = 0.0;
  /// Median time to first failure, absent when > 50% of nodes never fail
  /// inside the window (the common case on healthy fleets).
  std::optional<double> median_first_failure_hours;

  /// Time from a node's first failure to its second, censored at the
  /// window end; defined over nodes with >= 1 failure.
  stats::SurvivalCurve refailure;
  std::optional<double> median_refailure_hours;

  /// Log-rank test: refailure times vs first-failure times.  A small
  /// p-value with negative observed-minus-expected for the first-failure
  /// group means failed nodes re-fail significantly faster — the
  /// statistical form of the paper's lemon-node observation.
  std::optional<stats::LogRankResult> repeat_offender_test;
  bool failed_nodes_refail_faster = false;
};

/// Computes the node survival view. Errors: empty log.
Result<NodeSurvival> analyze_node_survival(const data::LogIndex& index);

}  // namespace tsufail::analysis
