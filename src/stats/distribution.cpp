#include "stats/distribution.h"

#include <cmath>

namespace tsufail::stats {
namespace {

/// Regularized lower incomplete gamma P(a, x) by series expansion
/// (x < a + 1) or continued fraction (otherwise), given ln Gamma(a).
/// Standard Numerical Recipes formulation, accurate to ~1e-12 over this
/// library's range.
double reg_lower_gamma(double a, double x, double log_gamma_a) {
  if (x <= 0.0) return 0.0;
  const double log_prefix = a * std::log(x) - x - log_gamma_a;
  if (x < a + 1.0) {
    // Series: P(a,x) = e^-x x^a / Gamma(a) * sum_{n>=0} x^n / (a (a+1)...(a+n))
    double term = 1.0 / a;
    double sum = term;
    double denom = a;
    for (int n = 0; n < 500; ++n) {
      denom += 1.0;
      term *= x / denom;
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return sum * std::exp(log_prefix);
  }
  // Continued fraction for Q(a,x) (modified Lentz).
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return 1.0 - std::exp(log_prefix) * h;
}

}  // namespace

double Gamma::cdf(double x) const noexcept { return GammaCdf(*this)(x); }

GammaCdf::GammaCdf(const Gamma& gamma) noexcept
    : shape_(gamma.shape),
      scale_(gamma.scale),
      log_gamma_shape_(detail::lgamma_threadsafe(gamma.shape)) {}

double GammaCdf::operator()(double x) const noexcept {
  if (x <= 0.0) return 0.0;
  return reg_lower_gamma(shape_, x / scale_, log_gamma_shape_);
}

Result<LogNormal> LogNormal::from_mean_median(double mean, double median) {
  if (!(median > 0.0))
    return Error(ErrorKind::kDomain, "lognormal median must be positive");
  if (!(mean > median))
    return Error(ErrorKind::kDomain, "lognormal mean must exceed median (right skew)");
  LogNormal d;
  d.mu_log = std::log(median);
  // mean = exp(mu + sigma^2/2)  =>  sigma = sqrt(2 (log mean - mu)).
  d.sigma_log = std::sqrt(2.0 * (std::log(mean) - d.mu_log));
  return d;
}

}  // namespace tsufail::stats
