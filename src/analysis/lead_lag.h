// Cross-category lead-lag interaction.
//
// The paper suspects multi-GPU failure clustering comes from "interaction
// between application, GPU hardware, and operating conditions".  This
// analyzer makes such couplings measurable for any category pair: does a
// failure of category A raise the short-term rate of category B?  The
// statistic is the observed count of B events within `window_hours` after
// an A event, against the count expected if B were a homogeneous Poisson
// stream (rate_B * exposure), with a Poisson z-score.
#pragma once

#include <vector>

#include "data/log_index.h"

namespace tsufail::analysis {

struct LeadLagPair {
  data::Category leader = data::Category::kUnknown;    ///< A
  data::Category follower = data::Category::kUnknown;  ///< B
  std::size_t leader_events = 0;
  std::size_t follower_events = 0;
  double observed = 0.0;   ///< B events inside the post-A windows
  double expected = 0.0;   ///< under independence
  double lift = 0.0;       ///< observed / expected
  double z_score = 0.0;    ///< (obs - exp) / sqrt(exp)
};

struct LeadLagAnalysis {
  double window_hours = 0.0;
  /// All ordered pairs with enough events, sorted descending by z-score.
  std::vector<LeadLagPair> pairs;
};

/// Computes lead-lag couplings over all ordered category pairs with at
/// least `min_events` occurrences each.  Self-pairs (A -> A) measure
/// self-excitation (burstiness).  Errors: fewer than 2 qualifying
/// categories, or non-positive window.
Result<LeadLagAnalysis> analyze_lead_lag(const data::LogIndex& index,
                                         double window_hours = 72.0,
                                         std::size_t min_events = 8);

/// One specific ordered pair (no minimum-event gate).
/// Errors: either category has no events, or non-positive window.
Result<LeadLagPair> analyze_lead_lag_pair(const data::LogIndex& index, data::Category leader,
                                          data::Category follower, double window_hours = 72.0);

}  // namespace tsufail::analysis
