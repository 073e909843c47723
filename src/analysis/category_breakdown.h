// RQ1 / Figure 2: distribution of failures over reported categories, and
// the hardware/software/unknown class split.
#pragma once

#include <vector>

#include "data/log_index.h"

namespace tsufail::analysis {

struct CategoryShare {
  data::Category category = data::Category::kUnknown;
  std::size_t count = 0;
  double percent = 0.0;  ///< of all failures in the log
};

struct ClassShare {
  data::FailureClass cls = data::FailureClass::kUnknown;
  std::size_t count = 0;
  double percent = 0.0;
};

struct CategoryBreakdown {
  std::size_t total_failures = 0;
  /// Categories sorted by descending count (the Figure 2 bar order);
  /// zero-count categories from the machine vocabulary are included last.
  std::vector<CategoryShare> categories;
  /// Hardware / software / unknown totals.
  std::vector<ClassShare> classes;

  /// Share of one category (0 if absent). Convenience for benches/tests.
  double percent_of(data::Category category) const noexcept;
  /// Share of one class (0 if absent).
  double percent_of(data::FailureClass cls) const noexcept;
};

/// Computes the Figure 2 breakdown. Errors: empty log.
Result<CategoryBreakdown> analyze_categories(const data::LogIndex& index);

}  // namespace tsufail::analysis
