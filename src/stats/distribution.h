// Parametric distributions used to model inter-arrival (TBF) and repair
// (TTR) times.  Each type exposes pdf/cdf/quantile/mean so the fitting code,
// the simulator, and the goodness-of-fit tests share one definition.
//
// The choice of families follows HPC field-study practice: Weibull for
// hardware inter-arrival times (decreasing hazard from infant mortality),
// exponential for memoryless software arrival processes, and lognormal for
// repair times (multiplicative delays: diagnosis x parts x staffing).
#pragma once

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace tsufail::stats {

namespace detail {
/// Thread-safe ln|Gamma(a)|.  glibc's lgamma() writes the process-global
/// `signgam`, which is a data race when analyses fit distributions in
/// parallel; lgamma_r() returns the sign through an out-parameter instead.
inline double lgamma_threadsafe(double a) noexcept {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return lgamma_r(a, &sign);
#else
  return std::lgamma(a);
#endif
}
}  // namespace detail

/// Exponential(mean). Hazard is constant; the classic MTBF model.
struct Exponential {
  double mean_value = 1.0;

  double pdf(double x) const noexcept {
    return x < 0 ? 0.0 : std::exp(-x / mean_value) / mean_value;
  }
  double cdf(double x) const noexcept { return x < 0 ? 0.0 : -std::expm1(-x / mean_value); }
  double quantile(double q) const noexcept { return -mean_value * std::log1p(-q); }
  double mean() const noexcept { return mean_value; }
  double variance() const noexcept { return mean_value * mean_value; }
};

/// Weibull(shape k, scale lambda). k < 1 gives a decreasing hazard
/// (failures cluster after repairs), k = 1 reduces to Exponential.
struct Weibull {
  double shape = 1.0;
  double scale = 1.0;

  double pdf(double x) const noexcept {
    if (x < 0) return 0.0;
    if (x == 0) return shape < 1.0 ? 0.0 : (shape == 1.0 ? 1.0 / scale : 0.0);
    const double z = x / scale;
    return (shape / scale) * std::pow(z, shape - 1.0) * std::exp(-std::pow(z, shape));
  }
  double cdf(double x) const noexcept {
    return x < 0 ? 0.0 : -std::expm1(-std::pow(x / scale, shape));
  }
  double quantile(double q) const noexcept {
    return scale * std::pow(-std::log1p(-q), 1.0 / shape);
  }
  double mean() const noexcept { return scale * std::tgamma(1.0 + 1.0 / shape); }
  double variance() const noexcept {
    const double g1 = std::tgamma(1.0 + 1.0 / shape);
    const double g2 = std::tgamma(1.0 + 2.0 / shape);
    return scale * scale * (g2 - g1 * g1);
  }
};

/// LogNormal(mu, sigma) of the underlying normal: X = exp(N(mu, sigma^2)).
struct LogNormal {
  double mu_log = 0.0;
  double sigma_log = 1.0;

  double pdf(double x) const noexcept {
    if (x <= 0) return 0.0;
    const double z = (std::log(x) - mu_log) / sigma_log;
    return std::exp(-0.5 * z * z) / (x * sigma_log * std::sqrt(2.0 * std::numbers::pi));
  }
  double cdf(double x) const noexcept {
    if (x <= 0) return 0.0;
    return 0.5 * std::erfc(-(std::log(x) - mu_log) / (sigma_log * std::numbers::sqrt2));
  }
  double mean() const noexcept { return std::exp(mu_log + 0.5 * sigma_log * sigma_log); }
  double median() const noexcept { return std::exp(mu_log); }
  double variance() const noexcept {
    const double s2 = sigma_log * sigma_log;
    return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_log + s2);
  }

  /// Parameterizes a lognormal from a desired mean and median
  /// (mean > median > 0); convenient when calibrating to reported MTTRs.
  static Result<LogNormal> from_mean_median(double mean, double median);
};

/// Gamma(shape k, scale theta).
struct Gamma {
  double shape = 1.0;
  double scale = 1.0;

  double pdf(double x) const noexcept {
    if (x < 0) return 0.0;
    if (x == 0) return shape < 1.0 ? 0.0 : (shape == 1.0 ? 1.0 / scale : 0.0);
    return std::exp((shape - 1.0) * std::log(x) - x / scale -
                    detail::lgamma_threadsafe(shape) - shape * std::log(scale));
  }
  /// Regularized lower incomplete gamma, via series/continued fraction.
  double cdf(double x) const noexcept;
  double mean() const noexcept { return shape * scale; }
  double variance() const noexcept { return shape * scale * scale; }
};

/// Gamma::cdf for scans over many points of one fit: ln Gamma(shape) is
/// evaluated once, at construction, instead of once per point.  Each
/// call equals gamma.cdf(x) bit for bit.
class GammaCdf {
 public:
  explicit GammaCdf(const Gamma& gamma) noexcept;
  double operator()(double x) const noexcept;

 private:
  double shape_;
  double scale_;
  double log_gamma_shape_;
};

}  // namespace tsufail::stats
