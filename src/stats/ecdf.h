// Empirical cumulative distribution functions.
//
// Figures 6 and 9 of the paper are CDFs of time-between-failures and
// time-to-recovery.  Ecdf owns a sorted copy of the sample and answers
// F(x), inverse-F (quantiles), and produces plot-ready (x, F) step series.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"

namespace tsufail::stats {

class Ecdf {
 public:
  /// Builds an ECDF from an unsorted sample. Errors: empty sample.
  static Result<Ecdf> create(std::span<const double> sample);

  std::size_t count() const noexcept { return sorted_.size(); }
  double min() const noexcept { return sorted_.front(); }
  double max() const noexcept { return sorted_.back(); }
  double mean() const noexcept { return mean_; }

  /// F(x) = P[X <= x], the right-continuous empirical CDF.
  double evaluate(double x) const noexcept;

  /// Smallest sample value v with F(v) >= q (empirical quantile,
  /// inverse-CDF definition). Errors: q outside [0, 1].
  Result<double> quantile(double q) const;

  /// The underlying ascending-sorted sample.
  std::span<const double> sorted() const noexcept { return sorted_; }

  /// Step-function series for plotting: `points` (x, F(x)) pairs sampled at
  /// evenly spaced ranks (always including the first and last observation).
  /// Precondition: points >= 2.
  std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  explicit Ecdf(std::vector<double> sorted);
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

/// Dvoretzky-Kiefer-Wolfowitz band half-width: with probability `level`,
/// the true CDF lies within +- this of the ECDF everywhere.  Gives the
/// Figure 6/9 CDFs an honest uncertainty envelope.
/// Errors: n == 0 or level outside (0, 1).
Result<double> dkw_band_halfwidth(std::size_t n, double level = 0.95);

/// Two-sample Kolmogorov-Smirnov statistic: sup_x |F1(x) - F2(x)|.
/// Used by tests to verify simulated samples match calibrated analytic
/// distributions in shape.
double ks_statistic(const Ecdf& a, const Ecdf& b);

/// One-sample KS statistic of an ascending-sorted sample against an
/// arbitrary continuous CDF.  The scan stops once its running maximum
/// reaches `stop_at` and returns that maximum: then the result is >=
/// stop_at but not the full statistic, which is all a caller comparing
/// candidates against the best distance so far needs.  The running
/// maximum never falls, so a result below stop_at is always exact.
/// Repeats sit side by side in a sorted sample, so `cdf` runs once per
/// run of equal values; the maximum still visits every rank.
template <typename Cdf>
double ks_statistic_against_sorted(std::span<const double> sorted, Cdf&& cdf,
                                   double stop_at = std::numeric_limits<double>::infinity()) {
  const auto n = static_cast<double>(sorted.size());
  double worst = 0.0;
  double model = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) model = cdf(sorted[i]);
    const double before = static_cast<double>(i) / n;
    const double after = static_cast<double>(i + 1) / n;
    worst = std::max({worst, std::abs(model - before), std::abs(model - after)});
    if (worst >= stop_at) break;
  }
  return worst;
}

/// One-sample KS statistic against an arbitrary continuous CDF.
template <typename Cdf>
double ks_statistic_against(const Ecdf& ecdf, Cdf&& cdf) {
  return ks_statistic_against_sorted(ecdf.sorted(), std::forward<Cdf>(cdf));
}

}  // namespace tsufail::stats
