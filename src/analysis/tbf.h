// RQ4 / Figures 6-7: time between failures.
//
// TBF is the wall-clock gap between consecutive failures *system-wide*
// (the operator's view of how often the machine is interrupted).  The
// per-category variant restricts the event stream to one category before
// differencing, which is also how the paper derives "MTBF for GPU
// failures".  Two MTBF estimators are provided:
//   * mean of the inter-arrival sample (what Figure 6's CDF averages), and
//   * exposure MTBF = observation-window hours / failure count, which is
//     robust to censoring at the window edges.
#pragma once

#include <optional>
#include <vector>

#include "data/log_index.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "stats/fit.h"
#include "stats/hypothesis.h"

namespace tsufail::analysis {

struct TbfResult {
  std::vector<double> tbf_hours;     ///< inter-arrival sample (size n-1)
  double mtbf_hours = 0.0;           ///< mean of tbf_hours
  double exposure_mtbf_hours = 0.0;  ///< window / count
  stats::Summary summary;            ///< quantiles of tbf_hours
  double p75_hours = 0.0;            ///< the paper's "75% within X hours"
  std::optional<stats::FamilyChoice> best_family;  ///< best-fit family, if fittable
};

/// System-wide TBF.  `fit_family = false` skips the family selection and
/// leaves best_family empty; every other field is unchanged.
/// Errors: fewer than 2 failures.
Result<TbfResult> analyze_tbf(const data::LogIndex& index, bool fit_family = true);

/// TBF restricted to one category's event stream.
/// Errors: fewer than 2 failures of that category.
Result<TbfResult> analyze_tbf_category(const data::LogIndex& index, data::Category category);

/// TBF restricted to one failure class.
Result<TbfResult> analyze_tbf_class(const data::LogIndex& index, data::FailureClass cls);

struct MtbfInterval {
  double mtbf_hours = 0.0;
  double low_hours = 0.0;
  double high_hours = 0.0;
  double level = 0.95;
};

/// Exact (Garwood/Poisson) confidence interval for an exposure MTBF given
/// `failures` over `window_hours`.  Headline MTBFs in field studies are
/// single realizations; this is their honest uncertainty statement.
/// Errors: zero failures, non-positive window, level outside (0,1).
Result<MtbfInterval> mtbf_confidence_interval(std::size_t failures, double window_hours,
                                              double level = 0.95);

struct CategoryTbf {
  data::Category category = data::Category::kUnknown;
  std::size_t failures = 0;
  stats::BoxStats box;               ///< Figure 7's per-type box
  double mtbf_hours = 0.0;
  double exposure_mtbf_hours = 0.0;
};

/// Per-category TBF boxes (Figure 7), sorted ascending by mean TBF as in
/// the paper.  Categories with fewer than `min_failures` events are
/// skipped (a 2-event category has one gap — not a distribution).
/// Errors: no category reaches `min_failures`.
Result<std::vector<CategoryTbf>> analyze_tbf_by_category(const data::LogIndex& index,
                                                         std::size_t min_failures = 3);

}  // namespace tsufail::analysis
