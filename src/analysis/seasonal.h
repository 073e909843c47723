// Figures 11-12: seasonal (monthly) behaviour of repairs and failures.
//
// The paper folds the multi-year logs onto calendar months (Jan..Dec),
// plots the TTR distribution per month (Fig 11) and the failure count per
// month (Fig 12), and asks whether months with more failures also repair
// slower.  It finds no such correlation; we compute Pearson and Spearman
// between monthly failure counts and monthly median TTR to make that
// claim testable.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "data/log_index.h"
#include "stats/descriptive.h"

namespace tsufail::analysis {

struct MonthlyTtr {
  int month = 1;                         ///< 1..12
  std::size_t failures = 0;
  std::optional<stats::BoxStats> box;    ///< absent for 0-failure months
};

struct SeasonalAnalysis {
  std::array<MonthlyTtr, 12> monthly;    ///< index 0 = January
  std::array<std::size_t, 12> failure_counts{};  ///< Figure 12 bars
  /// Days of each calendar month covered by the log window.  Multi-year
  /// windows rarely cover every month equally (Tsubame-2's covers Jan-Jul
  /// twice but Sep-Dec once), so raw counts are exposure-biased.
  std::array<double, 12> exposure_days{};
  /// Exposure-normalized failure density (failures per covered day).
  std::array<double, 12> failures_per_day{};
  double first_half_median_ttr = 0.0;    ///< Jan-Jun pooled median TTR
  double second_half_median_ttr = 0.0;   ///< Jul-Dec pooled median TTR
  /// Correlation of monthly failure DENSITY (exposure-normalized) vs
  /// monthly median TTR across months with failures; the paper's "no
  /// correlation" claim.  Computed on failures_per_day, not raw counts,
  /// precisely because of the exposure bias above.
  std::optional<double> pearson_density_ttr;
  std::optional<double> spearman_density_ttr;
};

/// Computes the Figures 11-12 monthly profiles. Errors: empty log.
Result<SeasonalAnalysis> analyze_seasonal(const data::LogIndex& index);

/// Seasonal profile restricted to one failure class (the paper: "We
/// observed similar trends for different failure types as well, but
/// results are not shown for brevity").  Errors: no failures of `cls`.
Result<SeasonalAnalysis> analyze_seasonal_class(const data::LogIndex& index,
                                                data::FailureClass cls);

/// Seasonal profile restricted to one category.  Errors: no such failures.
Result<SeasonalAnalysis> analyze_seasonal_category(const data::LogIndex& index,
                                                   data::Category category);

}  // namespace tsufail::analysis
