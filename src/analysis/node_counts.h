// RQ2 / Figure 4: how failures are distributed across nodes.
//
// The paper reports, over nodes that failed at least once, the share that
// failed exactly k times (k = 1, 2, 3, >= 4), plus the hardware/software
// split of failures on repeat-failure nodes (nodes with more than one
// failure): 352 hardware + 1 software on Tsubame-2, 104 + 95 on Tsubame-3.
#pragma once

#include <vector>

#include "data/log_index.h"

namespace tsufail::analysis {

struct NodeCountBucket {
  std::size_t failures = 0;      ///< exactly this many failures per node
  std::size_t nodes = 0;         ///< nodes in this bucket
  double percent_of_failed = 0;  ///< of nodes with >= 1 failure
};

struct NodeCounts {
  std::size_t failed_nodes = 0;           ///< nodes with >= 1 failure
  std::size_t total_nodes = 0;            ///< machine size
  std::vector<NodeCountBucket> buckets;   ///< ascending by failure count
  double percent_single_failure = 0.0;    ///< Fig 4's headline number
  double percent_multi_failure = 0.0;     ///< nodes with > 1 failure
  std::size_t max_failures_on_one_node = 0;

  /// Failures on repeat-failure nodes, split by class (the 352/1 & 104/95
  /// numbers in the paper).
  std::size_t repeat_node_hardware_failures = 0;
  std::size_t repeat_node_software_failures = 0;

  /// Percent of failed nodes with exactly `k` failures (0 if none).
  double percent_with(std::size_t k) const noexcept;
};

/// Computes the Figure 4 distribution. Errors: empty log.
Result<NodeCounts> analyze_node_counts(const data::LogIndex& index);

}  // namespace tsufail::analysis
