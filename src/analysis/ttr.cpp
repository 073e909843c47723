#include "analysis/ttr.h"

#include <algorithm>
#include <span>

#include "stats/kernels.h"

namespace tsufail::analysis {
namespace {

Result<TtrResult> ttr_from_values(std::vector<double> values, bool fit_family = true) {
  if (values.empty())
    return Error(ErrorKind::kDomain, "TTR analysis needs at least one failure");
  TtrResult result;
  result.ttr_hours = std::move(values);
  result.mttr_hours = stats::mean(result.ttr_hours);

  // Sort once; summarize and select_family both detect sorted input and
  // read it in place.
  std::vector<double> sorted = result.ttr_hours;
  stats::sort_ascending(sorted);
  auto summary = stats::summarize(sorted);
  if (!summary.ok()) return summary.error();
  result.summary = summary.value();
  if (!fit_family) return result;

  // Family fitting requires positive support: the suffix past the
  // zero-TTR records (repair times are non-negative).
  const std::span<const double> positive(std::upper_bound(sorted.begin(), sorted.end(), 0.0),
                                         sorted.end());
  if (positive.size() >= 8) {
    if (auto family = stats::select_family(positive); family.ok())
      result.best_family = family.value();
  }
  return result;
}

}  // namespace

Result<TtrResult> analyze_ttr(const data::LogIndex& index, bool fit_family) {
  const auto ttr = index.ttr();
  return ttr_from_values(std::vector<double>(ttr.begin(), ttr.end()), fit_family);
}

Result<TtrResult> analyze_ttr_category(const data::LogIndex& index, data::Category category) {
  auto result = ttr_from_values(index.ttr_of(index.by_category(category)));
  if (!result.ok())
    return result.error().with_context("category " + std::string(data::to_string(category)));
  return result;
}

Result<TtrResult> analyze_ttr_class(const data::LogIndex& index, data::FailureClass cls) {
  auto result = ttr_from_values(index.ttr_of(index.by_class(cls)));
  if (!result.ok())
    return result.error().with_context("class " + std::string(data::to_string(cls)));
  return result;
}

Result<std::vector<CategoryTtr>> analyze_ttr_by_category(const data::LogIndex& index,
                                                         std::size_t min_failures) {
  std::vector<CategoryTtr> rows;
  const double total = static_cast<double>(index.size());
  for (data::Category category : data::categories_for(index.machine())) {
    const auto positions = index.by_category(category);
    if (positions.size() < std::max<std::size_t>(min_failures, 1)) continue;
    const auto values = index.ttr_of(positions);
    auto box = stats::box_stats(values);
    if (!box.ok()) continue;
    rows.push_back({category, positions.size(),
                    100.0 * static_cast<double>(positions.size()) / total, box.value(),
                    stats::mean(values)});
  }
  if (rows.empty())
    return Error(ErrorKind::kDomain, "analyze_ttr_by_category: no category has enough failures");
  std::stable_sort(rows.begin(), rows.end(), [](const CategoryTtr& a, const CategoryTtr& b) {
    return a.mttr_hours < b.mttr_hours;
  });
  return rows;
}

}  // namespace tsufail::analysis
