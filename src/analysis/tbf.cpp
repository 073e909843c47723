#include "analysis/tbf.h"

#include <algorithm>
#include <limits>
#include <span>

#include "stats/kernels.h"

namespace tsufail::analysis {
namespace {

/// Core TBF computation over an ascending event-hour sample (every
/// LogIndex hour stream is ascending: spans preserve time order).
Result<TbfResult> tbf_from_hours(const data::MachineSpec& spec, std::span<const double> hours,
                                 bool fit_family = true) {
  if (hours.size() < 2)
    return Error(ErrorKind::kDomain,
                 "TBF needs at least 2 failures, have " + std::to_string(hours.size()));

  TbfResult result;
  result.tbf_hours = stats::adjacent_deltas(hours);
  result.mtbf_hours = stats::mean(result.tbf_hours);
  result.exposure_mtbf_hours = spec.window_hours() / static_cast<double>(hours.size());

  // The summary and the family fit both want an ordered sample; sorting
  // the gaps once here lets both read it in place.
  std::vector<double> sorted_gaps = result.tbf_hours;
  stats::sort_ascending(sorted_gaps);
  auto summary = stats::summarize(sorted_gaps);
  if (!summary.ok()) return summary.error();
  result.summary = summary.value();
  result.p75_hours = result.summary.p75;

  if (!fit_family) return result;
  // Simultaneous failures produce zero gaps; family fitting requires
  // positive support, so fit on the positive sub-sample — the suffix past
  // the zeros, since the sorted gaps are non-negative.
  const std::span<const double> positive(
      std::upper_bound(sorted_gaps.begin(), sorted_gaps.end(), 0.0), sorted_gaps.end());
  if (positive.size() >= 8) {
    if (auto family = stats::select_family(positive); family.ok())
      result.best_family = family.value();
  }
  return result;
}

}  // namespace

Result<TbfResult> analyze_tbf(const data::LogIndex& index, bool fit_family) {
  return tbf_from_hours(index.spec(), index.hours(), fit_family);
}

Result<TbfResult> analyze_tbf_category(const data::LogIndex& index, data::Category category) {
  auto result = tbf_from_hours(index.spec(), index.hours_of(index.by_category(category)));
  if (!result.ok())
    return result.error().with_context("category " + std::string(data::to_string(category)));
  return result;
}

Result<TbfResult> analyze_tbf_class(const data::LogIndex& index, data::FailureClass cls) {
  auto result = tbf_from_hours(index.spec(), index.hours_of(index.by_class(cls)));
  if (!result.ok())
    return result.error().with_context("class " + std::string(data::to_string(cls)));
  return result;
}

Result<MtbfInterval> mtbf_confidence_interval(std::size_t failures, double window_hours,
                                              double level) {
  if (failures == 0)
    return Error(ErrorKind::kDomain, "mtbf_confidence_interval: need at least one failure");
  auto rate = stats::poisson_rate_interval(failures, window_hours, level);
  if (!rate.ok()) return rate.error();
  MtbfInterval interval;
  interval.level = level;
  interval.mtbf_hours = 1.0 / rate.value().rate;
  // Rate and MTBF are reciprocal, so the bounds swap roles.
  interval.low_hours = 1.0 / rate.value().high;
  interval.high_hours = rate.value().low > 0.0 ? 1.0 / rate.value().low
                                               : std::numeric_limits<double>::infinity();
  return interval;
}

Result<std::vector<CategoryTbf>> analyze_tbf_by_category(const data::LogIndex& index,
                                                         std::size_t min_failures) {
  std::vector<CategoryTbf> rows;
  for (data::Category category : data::categories_for(index.machine())) {
    const auto positions = index.by_category(category);
    if (positions.size() < std::max<std::size_t>(min_failures, 2)) continue;
    // CategoryTbf keeps only the box and the two MTBF estimators, so the
    // full tbf_from_hours pipeline (summary quantiles, family fitting)
    // would be computed just to be discarded; difference the gaps and box
    // them directly instead.
    const auto hours = index.hours_of(positions);
    const auto gaps = stats::adjacent_deltas(hours);
    auto box = stats::box_stats(gaps);
    if (!box.ok()) continue;
    rows.push_back({category, positions.size(), box.value(), stats::mean(gaps),
                    index.spec().window_hours() / static_cast<double>(hours.size())});
  }
  if (rows.empty())
    return Error(ErrorKind::kDomain, "analyze_tbf_by_category: no category has enough failures");
  std::stable_sort(rows.begin(), rows.end(),
                   [](const CategoryTbf& a, const CategoryTbf& b) {
                     return a.mtbf_hours < b.mtbf_hours;
                   });
  return rows;
}

}  // namespace tsufail::analysis
