// RQ5 / Figures 9-10: time to recovery.
//
// TTR is directly recorded per failure, so unlike TBF no differencing is
// involved; the analysis is distributional: MTTR, the full CDF (Figure 9),
// and per-category boxes sorted by mean (Figure 10).  The paper's
// "impact" observation — infrequent categories can still hurt via long
// repairs — is captured by `CategoryTtr::share_percent` next to `box.max`.
#pragma once

#include <optional>
#include <vector>

#include "data/log_index.h"
#include "stats/descriptive.h"
#include "stats/fit.h"

namespace tsufail::analysis {

struct TtrResult {
  std::vector<double> ttr_hours;     ///< per-failure repair times
  double mttr_hours = 0.0;
  stats::Summary summary;
  std::optional<stats::FamilyChoice> best_family;
};

/// System-wide TTR.  `fit_family = false` skips the family selection and
/// leaves best_family empty; every other field is unchanged.
/// Errors: empty log.
Result<TtrResult> analyze_ttr(const data::LogIndex& index, bool fit_family = true);

/// TTR restricted to one category. Errors: no such failures.
Result<TtrResult> analyze_ttr_category(const data::LogIndex& index, data::Category category);

/// TTR restricted to one failure class. Errors: no such failures.
Result<TtrResult> analyze_ttr_class(const data::LogIndex& index, data::FailureClass cls);

struct CategoryTtr {
  data::Category category = data::Category::kUnknown;
  std::size_t failures = 0;
  double share_percent = 0.0;  ///< category's share of all failures
  stats::BoxStats box;         ///< Figure 10's per-type box
  double mttr_hours = 0.0;
};

/// Per-category TTR boxes (Figure 10), ascending by mean TTR.
/// Categories with fewer than `min_failures` records are skipped.
/// Errors: no category reaches `min_failures`.
Result<std::vector<CategoryTtr>> analyze_ttr_by_category(const data::LogIndex& index,
                                                         std::size_t min_failures = 2);

}  // namespace tsufail::analysis
