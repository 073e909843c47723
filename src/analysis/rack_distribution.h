// Rack-level spatial distribution of failures.
//
// The paper's generalizability discussion: "the non-uniform distribution
// of failures among racks is also present in multi-GPU-per-node systems
// and can become particularly challenging."  This analyzer aggregates
// failures per rack, tests uniformity, and summarizes concentration with
// a Gini coefficient — directly usable for spare placement and cooling
// investigations.
#pragma once

#include <vector>

#include "data/log_index.h"

namespace tsufail::analysis {

struct RackShare {
  int rack = 0;
  std::size_t failures = 0;
  double percent = 0.0;
  double per_node_rate = 0.0;  ///< failures / nodes in this rack
};

struct RackDistribution {
  std::vector<RackShare> racks;      ///< descending by failure count
  std::size_t total_racks = 0;
  std::size_t racks_with_failures = 0;
  /// Chi-square p-value against a uniform per-node hazard (expected
  /// counts proportional to rack sizes); small = spatially non-uniform.
  double uniformity_p_value = 1.0;
  /// Gini coefficient of per-rack failure counts (0 = perfectly even,
  /// -> 1 = concentrated on few racks).
  double gini = 0.0;
  /// Smallest number of racks holding >= half of all failures.
  std::size_t racks_holding_half = 0;
};

/// Computes the rack view. Errors: empty log or spec without rack info.
Result<RackDistribution> analyze_racks(const data::LogIndex& index);

/// Gini coefficient of a non-negative sample (exposed for tests).
double gini_coefficient(std::vector<double> values);

}  // namespace tsufail::analysis
