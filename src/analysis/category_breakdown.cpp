#include "analysis/category_breakdown.h"

#include <algorithm>
#include <map>

namespace tsufail::analysis {

double CategoryBreakdown::percent_of(data::Category category) const noexcept {
  for (const auto& share : categories) {
    if (share.category == category) return share.percent;
  }
  return 0.0;
}

double CategoryBreakdown::percent_of(data::FailureClass cls) const noexcept {
  for (const auto& share : classes) {
    if (share.cls == cls) return share.percent;
  }
  return 0.0;
}

Result<CategoryBreakdown> analyze_categories(const data::LogIndex& index) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "analyze_categories: empty log");

  CategoryBreakdown breakdown;
  breakdown.total_failures = index.size();
  const double total = static_cast<double>(index.size());

  // Enum-ordered map of the machine's vocabulary (zero counts included),
  // so the stable sort below breaks count ties in enum order.
  std::map<data::Category, std::size_t> counts;
  for (data::Category category : data::categories_for(index.machine()))
    counts[category] = index.count(category);
  for (const auto& [category, count] : counts) {
    breakdown.categories.push_back(
        {category, count, 100.0 * static_cast<double>(count) / total});
  }
  std::stable_sort(breakdown.categories.begin(), breakdown.categories.end(),
                   [](const CategoryShare& a, const CategoryShare& b) { return a.count > b.count; });

  for (data::FailureClass cls : {data::FailureClass::kHardware, data::FailureClass::kSoftware,
                                 data::FailureClass::kUnknown}) {
    const std::size_t count = index.by_class(cls).size();
    breakdown.classes.push_back({cls, count, 100.0 * static_cast<double>(count) / total});
  }
  return breakdown;
}

}  // namespace tsufail::analysis
