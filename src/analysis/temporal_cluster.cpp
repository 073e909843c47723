#include "analysis/temporal_cluster.h"

#include <algorithm>
#include <cmath>

#include "stats/kernels.h"

namespace tsufail::analysis {

Result<TemporalClustering> analyze_event_clustering(std::vector<double> event_hours,
                                                    double follow_window_hours) {
  if (event_hours.size() < 3)
    return Error(ErrorKind::kDomain, "clustering needs at least 3 events, have " +
                                         std::to_string(event_hours.size()));
  if (follow_window_hours < 0.0)
    return Error(ErrorKind::kDomain, "follow window must be non-negative");
  stats::sort_ascending(event_hours);

  TemporalClustering result;
  result.events = event_hours.size();
  result.event_hours = std::move(event_hours);
  result.follow_window_hours = follow_window_hours;

  result.gaps_hours.reserve(result.events - 1);
  for (std::size_t i = 1; i < result.events; ++i)
    result.gaps_hours.push_back(result.event_hours[i] - result.event_hours[i - 1]);

  auto summary = stats::summarize(result.gaps_hours);
  if (!summary.ok()) return summary.error();
  result.gap_summary = summary.value();

  const double mean_gap = result.gap_summary.mean;
  if (mean_gap <= 0.0)
    return Error(ErrorKind::kDomain, "all events are simultaneous; clustering undefined");
  if (follow_window_hours == 0.0) {
    // Auto window: half a mean gap keeps the Poisson baseline near
    // 1 - e^{-1/2} ~ 0.39 regardless of stream rate; cap at a week so the
    // number stays interpretable as "close-by in time".
    follow_window_hours = std::min(0.5 * mean_gap, 168.0);
    result.follow_window_hours = follow_window_hours;
  }
  result.cv = result.gap_summary.stddev / mean_gap;
  result.burstiness = (result.cv - 1.0) / (result.cv + 1.0);

  std::size_t followed = 0;
  for (double gap : result.gaps_hours) {
    if (gap <= follow_window_hours) ++followed;
  }
  result.follow_probability =
      static_cast<double>(followed) / static_cast<double>(result.gaps_hours.size());
  // A Poisson process with the same rate has exponential gaps:
  // P[gap <= w] = 1 - exp(-w / mean_gap).
  result.poisson_follow_probability = -std::expm1(-follow_window_hours / mean_gap);
  result.clustered =
      result.cv > 1.0 && result.follow_probability > result.poisson_follow_probability;
  return result;
}

Result<std::vector<CategoryBurstiness>> analyze_category_burstiness(
    const data::LogIndex& index, std::size_t min_failures) {
  std::vector<CategoryBurstiness> rows;
  for (data::Category category : data::categories_for(index.machine())) {
    std::vector<double> hours = index.hours_of(index.by_category(category));
    if (hours.size() < std::max<std::size_t>(min_failures, 3)) continue;
    auto clustering = analyze_event_clustering(std::move(hours));
    if (!clustering.ok()) continue;
    rows.push_back({category, clustering.value().events, clustering.value().cv,
                    clustering.value().burstiness});
  }
  if (rows.empty())
    return Error(ErrorKind::kDomain, "analyze_category_burstiness: no category has enough events");
  std::sort(rows.begin(), rows.end(),
            [](const CategoryBurstiness& a, const CategoryBurstiness& b) {
              return a.burstiness > b.burstiness;
            });
  return rows;
}

Result<TemporalClustering> analyze_multi_gpu_clustering(const data::LogIndex& index,
                                                        double follow_window_hours) {
  auto result =
      analyze_event_clustering(index.hours_of(index.multi_gpu()), follow_window_hours);
  if (!result.ok()) return result.error().with_context("multi-GPU failure stream");
  return result;
}

}  // namespace tsufail::analysis
