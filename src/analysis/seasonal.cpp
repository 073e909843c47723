#include "analysis/seasonal.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <string>

#include "stats/correlation.h"
#include "stats/kernels.h"

namespace tsufail::analysis {

namespace {

/// Days of each calendar month covered by [start, end): walks month
/// boundaries exactly (partial months contribute fractional days).
std::array<double, 12> month_exposure_days(TimePoint start, TimePoint end) {
  std::array<double, 12> days{};
  TimePoint cursor = start;
  while (cursor < end) {
    const CivilDateTime civil = cursor.to_civil();
    CivilDateTime next{civil.year, civil.month, 1, 0, 0, 0};
    if (++next.month > 12) {
      next.month = 1;
      ++next.year;
    }
    TimePoint month_end = TimePoint::from_civil(next);
    if (month_end > end) month_end = end;
    days[static_cast<std::size_t>(civil.month - 1)] += hours_between(cursor, month_end) / 24.0;
    cursor = month_end;
  }
  return days;
}

using MonthlyTtrSamples = std::array<std::vector<double>, 12>;

/// The median of ascending `months` pooled, from one buffer they merge
/// into; 0 when all are empty.  It equals the median of the pooled sample
/// sorted again bit for bit: equal nonzero doubles have equal bits, and
/// quantile_sorted returns +0.0 whatever the order of +-0.
double pooled_median(std::span<const std::vector<double>> months) {
  std::size_t total = 0;
  for (const auto& month : months) total += month.size();
  if (total == 0) return 0.0;
  std::vector<double> merged;
  merged.reserve(total);
  for (const auto& month : months) {
    const auto middle = merged.insert(merged.end(), month.begin(), month.end());
    std::inplace_merge(merged.begin(), middle, merged.end());
  }
  return stats::quantile_sorted(merged, 0.5).value();
}

/// The Figures 11-12 profiles from per-month TTR samples (index 0 =
/// January), each in record order.  Sorts each month's sample in place.
SeasonalAnalysis seasonal_from(const data::MachineSpec& spec, MonthlyTtrSamples& ttr_by_month) {
  SeasonalAnalysis result;
  result.exposure_days = month_exposure_days(spec.log_start, spec.log_end);
  std::vector<double> densities, medians;  // months with >= 1 failure
  for (int month = 1; month <= 12; ++month) {
    const auto idx = static_cast<std::size_t>(month - 1);
    std::vector<double>& ttr = ttr_by_month[idx];
    auto& slot = result.monthly[idx];
    slot.month = month;
    slot.failures = ttr.size();
    result.failure_counts[idx] = slot.failures;
    if (result.exposure_days[idx] > 0.0) {
      result.failures_per_day[idx] =
          static_cast<double>(slot.failures) / result.exposure_days[idx];
    }
    if (!ttr.empty()) {
      // box_stats reads an ascending sample in place.  A month already in
      // order stays as it is, as box_stats' own sorted view would leave it.
      if (!std::is_sorted(ttr.begin(), ttr.end())) stats::sort_ascending(ttr);
      slot.box = stats::box_stats(ttr).value();
      densities.push_back(result.failures_per_day[idx]);
      medians.push_back(slot.box->median);
    }
  }
  const std::span<const std::vector<double>> months(ttr_by_month);
  result.first_half_median_ttr = pooled_median(months.first(6));
  result.second_half_median_ttr = pooled_median(months.last(6));

  if (densities.size() >= 3) {
    if (auto r = stats::pearson(densities, medians); r.ok())
      result.pearson_density_ttr = r.value();
    if (auto rho = stats::spearman(densities, medians); rho.ok())
      result.spearman_density_ttr = rho.value();
  }
  return result;
}

/// The profile of the records at `subset` (ascending positions): each
/// month span is intersected with it, so every bucket holds the TTR
/// sequence a log of only those records would produce.
Result<SeasonalAnalysis> seasonal_within(const data::LogIndex& index,
                                         std::span<const std::uint32_t> subset,
                                         const std::string& context) {
  if (subset.empty())
    return Error(ErrorKind::kDomain, "analyze_seasonal: empty log").with_context(context);
  MonthlyTtrSamples ttr_by_month;
  std::vector<std::uint32_t> positions;
  for (int month = 1; month <= 12; ++month) {
    const auto in_month = index.by_month(month);
    positions.clear();
    std::set_intersection(in_month.begin(), in_month.end(), subset.begin(), subset.end(),
                          std::back_inserter(positions));
    ttr_by_month[static_cast<std::size_t>(month - 1)] = index.ttr_of(positions);
  }
  return seasonal_from(index.spec(), ttr_by_month);
}

}  // namespace

Result<SeasonalAnalysis> analyze_seasonal(const data::LogIndex& index) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "analyze_seasonal: empty log");

  // Month spans preserve record order, so each bucket's TTR sample is in
  // record order.
  MonthlyTtrSamples ttr_by_month;
  for (int month = 1; month <= 12; ++month)
    ttr_by_month[static_cast<std::size_t>(month - 1)] = index.ttr_of(index.by_month(month));
  return seasonal_from(index.spec(), ttr_by_month);
}

Result<SeasonalAnalysis> analyze_seasonal_class(const data::LogIndex& index,
                                                data::FailureClass cls) {
  return seasonal_within(index, index.by_class(cls),
                         "class " + std::string(data::to_string(cls)));
}

Result<SeasonalAnalysis> analyze_seasonal_category(const data::LogIndex& index,
                                                   data::Category category) {
  return seasonal_within(index, index.by_category(category),
                         "category " + std::string(data::to_string(category)));
}

}  // namespace tsufail::analysis
