// Figure 8: temporal clustering of multi-GPU failures.
//
// The paper observes that failures involving multiple GPUs on one node
// tend to arrive close together in time.  We quantify "clustered" three
// ways, all standard for point processes:
//   * coefficient of variation (CV) of inter-arrival gaps — a Poisson
//     (memoryless) stream has CV = 1, bursty streams CV > 1;
//   * burstiness index B = (CV - 1) / (CV + 1) in (-1, 1), 0 for Poisson;
//   * follow-up probability: the fraction of events followed by another
//     within `follow_window_hours`, next to the probability a Poisson
//     process of the same rate would achieve.
#pragma once

#include <vector>

#include "data/log_index.h"
#include "stats/descriptive.h"

namespace tsufail::analysis {

struct TemporalClustering {
  std::size_t events = 0;                  ///< multi-GPU failures considered
  std::vector<double> event_hours;         ///< hours since window start
  std::vector<double> gaps_hours;          ///< inter-arrival gaps
  stats::Summary gap_summary;
  double cv = 0.0;                         ///< stddev(gaps) / mean(gaps)
  double burstiness = 0.0;                 ///< (CV-1)/(CV+1)
  double follow_window_hours = 0.0;
  double follow_probability = 0.0;         ///< empirical P[next within window]
  double poisson_follow_probability = 0.0; ///< same-rate Poisson baseline
  bool clustered = false;                  ///< CV > 1 and follow prob above baseline
};

/// Clustering statistics of the multi-GPU failure stream (records whose
/// slot list names >= 2 GPUs).  `follow_window_hours = 0` (the default)
/// auto-selects half the stream's mean gap, capped at one week, so the
/// follow-up probability is informative for dense and sparse streams
/// alike.  Errors: fewer than 3 such events.
Result<TemporalClustering> analyze_multi_gpu_clustering(const data::LogIndex& index,
                                                        double follow_window_hours = 0.0);

/// Same statistics over an arbitrary caller-selected event stream (hours
/// since an arbitrary origin, ascending or not).  `follow_window_hours`
/// auto-selects as above when 0.  Errors: fewer than 3 events.
Result<TemporalClustering> analyze_event_clustering(std::vector<double> event_hours,
                                                    double follow_window_hours = 0.0);

struct CategoryBurstiness {
  data::Category category = data::Category::kUnknown;
  std::size_t failures = 0;
  double cv = 0.0;           ///< inter-arrival coefficient of variation
  double burstiness = 0.0;   ///< (CV-1)/(CV+1): 0 Poisson, >0 bursty
};

/// Inter-arrival burstiness per category — the quantitative form of
/// Figure 7's "relative spread" observation.  Categories with fewer than
/// `min_failures` events are skipped; sorted descending by burstiness.
/// Errors: no category qualifies.
Result<std::vector<CategoryBurstiness>> analyze_category_burstiness(
    const data::LogIndex& index, std::size_t min_failures = 5);

}  // namespace tsufail::analysis
