#include "testkit/reference_fit.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "stats/descriptive.h"

namespace tsufail::testkit {
namespace {

using stats::Exponential;
using stats::Family;
using stats::FamilyChoice;
using stats::Gamma;
using stats::LogNormal;
using stats::RunningStats;
using stats::Weibull;

Result<void> check_positive(std::span<const double> sample, const char* who) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, std::string(who) + ": empty sample");
  for (double x : sample) {
    if (!(x > 0.0) || !std::isfinite(x))
      return Error(ErrorKind::kDomain, std::string(who) + ": observations must be positive and finite");
  }
  return {};
}

double digamma(double x) noexcept {
  double result = 0.0;
  while (x < 10.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)));
  return result;
}

double reg_lower_gamma(double a, double x) {
  if (x <= 0.0) return 0.0;
  const double log_prefix = a * std::log(x) - x - stats::detail::lgamma_threadsafe(a);
  if (x < a + 1.0) {
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

/// One-sample KS distance of an ascending sample against `cdf`, scanned
/// to the end.
template <typename Cdf>
double ks_against(const std::vector<double>& sorted, Cdf&& cdf) {
  const auto n = static_cast<double>(sorted.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double model = cdf(sorted[i]);
    const double before = static_cast<double>(i) / n;
    const double after = static_cast<double>(i + 1) / n;
    worst = std::max({worst, std::abs(model - before), std::abs(model - after)});
  }
  return worst;
}

}  // namespace

Result<Exponential> reference_fit_exponential(std::span<const double> sample) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "fit_exponential: empty sample");
  double sum = 0.0;
  for (double x : sample) {
    if (!(x >= 0.0) || !std::isfinite(x))
      return Error(ErrorKind::kDomain, "fit_exponential: observations must be >= 0 and finite");
    sum += x;
  }
  const double mean = sum / static_cast<double>(sample.size());
  if (!(mean > 0.0))
    return Error(ErrorKind::kDomain, "fit_exponential: all-zero sample");
  return Exponential{mean};
}

Result<LogNormal> reference_fit_lognormal(std::span<const double> sample) {
  if (auto ok = check_positive(sample, "fit_lognormal"); !ok.ok()) return ok.error();
  RunningStats logs;
  for (double x : sample) logs.add(std::log(x));
  LogNormal d;
  d.mu_log = logs.mean();
  const auto n = static_cast<double>(sample.size());
  d.sigma_log = std::sqrt(logs.variance() * (n - 1.0) / n);
  if (d.sigma_log <= 0.0) d.sigma_log = 1e-12;
  return d;
}

Result<Weibull> reference_fit_weibull(std::span<const double> sample) {
  if (auto ok = check_positive(sample, "fit_weibull"); !ok.ok()) return ok.error();
  if (sample.size() < 2)
    return Error(ErrorKind::kDomain, "fit_weibull: need at least 2 observations");

  std::vector<double> logs(sample.size());
  double mean_log = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    logs[i] = std::log(sample[i]);
    mean_log += logs[i];
  }
  mean_log /= static_cast<double>(sample.size());
  const double max_log = *std::max_element(logs.begin(), logs.end());

  const auto g_and_slope = [&](double k, double& g, double& slope) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const double w = std::exp(k * (logs[i] - max_log));
      s0 += w;
      s1 += w * logs[i];
      s2 += w * logs[i] * logs[i];
    }
    const double r1 = s1 / s0;
    const double r2 = s2 / s0;
    g = r1 - 1.0 / k - mean_log;
    slope = (r2 - r1 * r1) + 1.0 / (k * k);
  };

  RunningStats log_stats;
  for (double l : logs) log_stats.add(l);
  double k = log_stats.stddev() > 0 ? 1.2 / (log_stats.stddev() * std::sqrt(6.0) / std::numbers::pi)
                                    : 1.0;
  k = std::clamp(k, 1e-2, 1e2);

  bool converged = false;
  for (int iter = 0; iter < 100; ++iter) {
    double g = 0.0, slope = 0.0;
    g_and_slope(k, g, slope);
    const double step = g / slope;
    double next = k - step;
    if (!(next > 0.0)) next = k / 2.0;
    if (std::abs(next - k) < 1e-12 * std::max(1.0, k)) {
      k = next;
      converged = true;
      break;
    }
    k = next;
  }
  if (!converged || !std::isfinite(k) || k <= 0.0)
    return Error(ErrorKind::kDomain, "fit_weibull: shape estimation did not converge");

  double sum_pow = 0.0;
  for (double x : sample) sum_pow += std::pow(x, k);
  const double scale = std::pow(sum_pow / static_cast<double>(sample.size()), 1.0 / k);
  return Weibull{k, scale};
}

Result<Gamma> reference_fit_gamma(std::span<const double> sample) {
  if (auto ok = check_positive(sample, "fit_gamma"); !ok.ok()) return ok.error();
  if (sample.size() < 2)
    return Error(ErrorKind::kDomain, "fit_gamma: need at least 2 observations");
  RunningStats raw, logs;
  for (double x : sample) {
    raw.add(x);
    logs.add(std::log(x));
  }
  const double s = std::log(raw.mean()) - logs.mean();
  if (s <= 0.0) {
    return Gamma{1e6, raw.mean() / 1e6};
  }
  double k = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s);
  for (int iter = 0; iter < 60; ++iter) {
    const double f = std::log(k) - digamma(k) - s;
    const double inv = 1.0 / k;
    const double trigamma = inv + 0.5 * inv * inv + inv * inv * inv / 6.0;
    const double slope = inv - trigamma;
    const double next = k - f / slope;
    if (!(next > 0.0)) {
      k /= 2.0;
      continue;
    }
    if (std::abs(next - k) < 1e-12 * std::max(1.0, k)) {
      k = next;
      break;
    }
    k = next;
  }
  return Gamma{k, raw.mean() / k};
}

double reference_gamma_cdf(const Gamma& gamma, double x) noexcept {
  if (x <= 0.0) return 0.0;
  return reg_lower_gamma(gamma.shape, x / gamma.scale);
}

Result<FamilyChoice> reference_select_family(std::span<const double> sample) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "Ecdf: empty sample");
  std::vector<double> sorted(sample.begin(), sample.end());
  if (!std::is_sorted(sorted.begin(), sorted.end())) std::sort(sorted.begin(), sorted.end());

  FamilyChoice best;
  best.ks_distance = 2.0;
  bool any = false;

  const auto consider = [&](Family family, const auto& fitted, const auto& cdf) {
    if (!fitted.ok()) return;
    const double d = ks_against(sorted, cdf);
    if (d < best.ks_distance) {
      best.family = family;
      best.ks_distance = d;
    }
    any = true;
  };

  const auto exponential = reference_fit_exponential(sample);
  consider(Family::kExponential, exponential,
           [&](double x) { return exponential.value().cdf(x); });
  const auto weibull = reference_fit_weibull(sample);
  consider(Family::kWeibull, weibull, [&](double x) { return weibull.value().cdf(x); });
  const auto lognormal = reference_fit_lognormal(sample);
  consider(Family::kLogNormal, lognormal, [&](double x) { return lognormal.value().cdf(x); });
  const auto gamma = reference_fit_gamma(sample);
  consider(Family::kGamma, gamma,
           [&](double x) { return reference_gamma_cdf(gamma.value(), x); });

  if (!any)
    return Error(ErrorKind::kDomain, "select_family: no family could be fitted");
  return best;
}

}  // namespace tsufail::testkit
