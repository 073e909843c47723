#include "analysis/rolling.h"

#include <algorithm>
#include <cstdint>

#include "stats/simd.h"

namespace tsufail::analysis {

Result<RollingTrends> analyze_rolling_trends(const data::LogIndex& index, double window_days,
                                             double step_days) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "analyze_rolling_trends: empty log");
  if (!(window_days > 0.0) || !(step_days > 0.0))
    return Error(ErrorKind::kDomain, "analyze_rolling_trends: window and step must be positive");

  const double total_hours = index.spec().window_hours();
  const double window_hours = window_days * 24.0;
  const double step_hours = step_days * 24.0;
  if (window_hours > total_hours)
    return Error(ErrorKind::kDomain, "analyze_rolling_trends: window exceeds the log span");

  const auto event_hours = index.hours();
  const auto ttr = index.ttr();  // same order as records/event_hours

  RollingTrends trends;
  trends.window_hours = window_hours;
  trends.step_hours = step_hours;

  // All window bounds up front, so the per-window binary searches run as
  // two lane-parallel batches (stats::simd) instead of 2 searches per
  // window: lo = first event >= start (lower_bound), hi = first event >
  // end (upper_bound) — the same positions the per-window searches found.
  std::vector<double> starts, ends;
  for (double start = 0.0; start + window_hours <= total_hours + 1e-9; start += step_hours) {
    starts.push_back(start);
    ends.push_back(start + window_hours);
  }
  std::vector<std::uint32_t> lo_counts(starts.size()), hi_counts(starts.size());
  stats::simd::lower_bound_many(event_hours, starts, lo_counts);
  stats::simd::upper_bound_many(event_hours, ends, hi_counts);

  for (std::size_t w = 0; w < starts.size(); ++w) {
    RollingWindow window;
    window.center_hours = (starts[w] + ends[w]) / 2.0;
    window.failures = hi_counts[w] - lo_counts[w];
    // Left-to-right accumulation, deliberately NOT a prefix-sum subtraction:
    // prefix[hi] - prefix[lo] reassociates the additions and would break
    // bit-identity with the original per-window sweep.
    double ttr_sum = 0.0;
    for (std::size_t i = lo_counts[w]; i < hi_counts[w]; ++i) ttr_sum += ttr[i];
    window.failures_per_day = static_cast<double>(window.failures) / window_days;
    if (window.failures > 0) {
      window.mtbf_hours = window_hours / static_cast<double>(window.failures);
      window.mttr_hours = ttr_sum / static_cast<double>(window.failures);
    }
    trends.windows.push_back(window);
  }
  if (trends.windows.size() < 3)
    return Error(ErrorKind::kDomain,
                 "analyze_rolling_trends: fewer than 3 windows; shrink window/step");

  std::vector<double> centers, rates, mttrs_x, mttrs_y;
  for (const auto& window : trends.windows) {
    centers.push_back(window.center_hours);
    rates.push_back(window.failures_per_day);
    if (window.failures > 0) {
      mttrs_x.push_back(window.center_hours);
      mttrs_y.push_back(window.mttr_hours);
    }
  }
  auto rate_fit = stats::linear_fit(centers, rates);
  if (!rate_fit.ok()) return rate_fit.error().with_context("rate trend");
  trends.rate_trend = rate_fit.value();
  if (auto mttr_fit = stats::linear_fit(mttrs_x, mttrs_y); mttr_fit.ok())
    trends.mttr_trend = mttr_fit.value();

  // Early-vs-late quarter comparison on raw events (not windows), so the
  // ratio is step/window independent.
  const double quarter = total_hours / 4.0;
  std::size_t early = 0, late = 0;
  for (double h : event_hours) {
    if (h < quarter) ++early;
    if (h > total_hours - quarter) ++late;
  }
  trends.early_late_rate_ratio =
      late == 0 ? static_cast<double>(early) : static_cast<double>(early) / late;
  return trends;
}

}  // namespace tsufail::analysis
