#include "analysis/lead_lag.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace tsufail::analysis {
namespace {

/// Union length of the post-event windows [t_i, t_i + w], clipped to the
/// observation span — the exposure under which follower events count.
double union_window_hours(const std::vector<double>& events, double window, double span) {
  double total = 0.0;
  double covered_until = 0.0;
  for (double t : events) {
    const double start = std::max(t, covered_until);
    const double end = std::min(t + window, span);
    if (end > start) total += end - start;
    covered_until = std::max(covered_until, t + window);
  }
  return total;
}

LeadLagPair compute_pair(const std::vector<double>& leader_hours,
                         const std::vector<double>& follower_hours, double window, double span) {
  LeadLagPair pair;
  pair.leader_events = leader_hours.size();
  pair.follower_events = follower_hours.size();

  // Observed: follower events falling in any post-leader window (counted
  // once).  Zero offsets are skipped and the scan continues backwards:
  // for self-pairs the nearest "leader" at offset 0 is the follower event
  // itself, and the real predecessor sits one position earlier.
  for (double f : follower_hours) {
    auto it = std::upper_bound(leader_hours.begin(), leader_hours.end(), f);
    while (it != leader_hours.begin()) {
      const double offset = f - *(it - 1);
      if (offset > 0.0) {
        if (offset <= window) pair.observed += 1.0;
        break;
      }
      --it;
    }
  }
  const double exposure = union_window_hours(leader_hours, window, span);
  const double follower_rate = static_cast<double>(follower_hours.size()) / span;
  pair.expected = follower_rate * exposure;
  pair.lift = pair.expected > 0.0 ? pair.observed / pair.expected : 0.0;
  pair.z_score =
      pair.expected > 0.0 ? (pair.observed - pair.expected) / std::sqrt(pair.expected) : 0.0;
  return pair;
}

}  // namespace

Result<LeadLagPair> analyze_lead_lag_pair(const data::LogIndex& index, data::Category leader,
                                          data::Category follower, double window_hours) {
  if (!(window_hours > 0.0))
    return Error(ErrorKind::kDomain, "lead-lag window must be positive");
  std::vector<double> leader_hours = index.hours_of(index.by_category(leader));
  std::vector<double> follower_hours = index.hours_of(index.by_category(follower));
  if (leader_hours.empty() || follower_hours.empty())
    return Error(ErrorKind::kDomain, "lead-lag: both categories need events");
  LeadLagPair pair =
      compute_pair(leader_hours, follower_hours, window_hours, index.spec().window_hours());
  pair.leader = leader;
  pair.follower = follower;
  return pair;
}

Result<LeadLagAnalysis> analyze_lead_lag(const data::LogIndex& index, double window_hours,
                                         std::size_t min_events) {
  if (!(window_hours > 0.0))
    return Error(ErrorKind::kDomain, "lead-lag window must be positive");

  // Enum order over all categories with events, matching the enum-keyed
  // map the record scan used to build, so the pair list's pre-sort order
  // (and hence equal-z tie order) is unchanged.
  std::map<data::Category, std::vector<double>> events;
  for (std::size_t c = 0; c <= static_cast<std::size_t>(data::Category::kUnknown); ++c) {
    const auto category = static_cast<data::Category>(c);
    const auto positions = index.by_category(category);
    if (!positions.empty()) events[category] = index.hours_of(positions);
  }
  std::vector<data::Category> qualifying;
  for (const auto& [category, hours] : events) {
    if (hours.size() >= min_events) qualifying.push_back(category);
  }
  if (qualifying.size() < 2)
    return Error(ErrorKind::kDomain,
                 "lead-lag: need at least 2 categories with >= " + std::to_string(min_events) +
                     " events");

  LeadLagAnalysis analysis;
  analysis.window_hours = window_hours;
  const double span = index.spec().window_hours();
  for (data::Category leader : qualifying) {
    for (data::Category follower : qualifying) {
      LeadLagPair pair =
          compute_pair(events[leader], events[follower], window_hours, span);
      pair.leader = leader;
      pair.follower = follower;
      analysis.pairs.push_back(pair);
    }
  }
  std::sort(analysis.pairs.begin(), analysis.pairs.end(),
            [](const LeadLagPair& a, const LeadLagPair& b) { return a.z_score > b.z_score; });
  return analysis;
}

}  // namespace tsufail::analysis
