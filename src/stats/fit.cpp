#include "stats/fit.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <variant>
#include <vector>

#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "stats/kernels.h"

namespace tsufail::stats {
namespace {

Result<void> check_positive(std::span<const double> sample, const char* who) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, std::string(who) + ": empty sample");
  for (double x : sample) {
    if (!(x > 0.0) || !std::isfinite(x))
      return Error(ErrorKind::kDomain, std::string(who) + ": observations must be positive and finite");
  }
  return {};
}

/// log(x) of every observation, in sample order, and one Welford pass
/// over them: what the Weibull, lognormal and gamma MLEs all start from,
/// so select_family computes it once for the three.
struct LogMoments {
  std::vector<double> logs;
  RunningStats stats;
};

// The loops below evaluate a transcendental only where a value differs
// from the one before it in sample order, which catches every repeat of
// a sorted sample (the TBF/TTR analyses fit sorted samples of whole-second
// gaps and 4-decimal repair times).  Each sum, Welford add and maximum
// still takes every observation in order, so every result keeps its bits.

/// Errors: as check_positive, in `who`'s name.
Result<LogMoments> log_moments(std::span<const double> sample, const char* who) {
  if (auto ok = check_positive(sample, who); !ok.ok()) return ok.error();
  LogMoments m;
  m.logs.resize(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    m.logs[i] = i > 0 && sample[i] == sample[i - 1] ? m.logs[i - 1] : std::log(sample[i]);
    m.stats.add(m.logs[i]);
  }
  return m;
}

LogNormal lognormal_from(const LogMoments& m) {
  LogNormal d;
  d.mu_log = m.stats.mean();
  // MLE uses the biased (n) variance of the logs.
  const auto n = static_cast<double>(m.stats.count());
  d.sigma_log = std::sqrt(m.stats.variance() * (n - 1.0) / n);
  if (d.sigma_log <= 0.0) d.sigma_log = 1e-12;  // degenerate constant sample
  return d;
}

Result<Weibull> weibull_from(std::span<const double> sample, const LogMoments& m) {
  if (sample.size() < 2)
    return Error(ErrorKind::kDomain, "fit_weibull: need at least 2 observations");

  // Profile likelihood: the shape k solves
  //   g(k) = sum(x^k log x)/sum(x^k) - 1/k - mean(log x) = 0,
  // then scale = (mean(x^k))^(1/k).  g is increasing in k, so Newton with
  // bisection safeguards converges from a moment-based start.
  const std::vector<double>& logs = m.logs;
  // The plain sum of the logs over n (not the Welford mean).
  const double mean_log = m.stats.sum() / static_cast<double>(sample.size());

  // Scale x^k by exp(-k*max_log) implicitly via shifted logs to avoid
  // overflow with large k.  The shift is invariant across Newton
  // iterations, so it is computed once, not per g_and_slope call.
  const double max_log = m.stats.max();

  const auto g_and_slope = [&](double k, double& g, double& slope) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    double w = 0.0, w_log = 0.0, w_log2 = 0.0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (i == 0 || logs[i] != logs[i - 1]) {
        w = std::exp(k * (logs[i] - max_log));
        w_log = w * logs[i];
        w_log2 = w_log * logs[i];
      }
      s0 += w;
      s1 += w_log;
      s2 += w_log2;
    }
    const double r1 = s1 / s0;
    const double r2 = s2 / s0;
    g = r1 - 1.0 / k - mean_log;
    slope = (r2 - r1 * r1) + 1.0 / (k * k);
  };

  // Start from the classic log-variance approximation.
  const double log_stddev = m.stats.stddev();
  double k = log_stddev > 0 ? 1.2 / (log_stddev * std::sqrt(6.0) / std::numbers::pi) : 1.0;
  k = std::clamp(k, 1e-2, 1e2);

  bool converged = false;
  for (int iter = 0; iter < 100; ++iter) {
    double g = 0.0, slope = 0.0;
    g_and_slope(k, g, slope);
    const double step = g / slope;
    double next = k - step;
    if (!(next > 0.0)) next = k / 2.0;  // safeguard
    if (std::abs(next - k) < 1e-12 * std::max(1.0, k)) {
      k = next;
      converged = true;
      break;
    }
    k = next;
  }
  if (!converged || !std::isfinite(k) || k <= 0.0)
    return Error(ErrorKind::kDomain, "fit_weibull: shape estimation did not converge");

  double sum_pow = 0.0, x_k = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (i == 0 || sample[i] != sample[i - 1]) x_k = std::pow(sample[i], k);
    sum_pow += x_k;
  }
  const double scale = std::pow(sum_pow / static_cast<double>(sample.size()), 1.0 / k);
  return Weibull{k, scale};
}

Result<Gamma> gamma_from(std::span<const double> sample, const LogMoments& m) {
  if (sample.size() < 2)
    return Error(ErrorKind::kDomain, "fit_gamma: need at least 2 observations");
  RunningStats raw;
  for (double x : sample) raw.add(x);
  const double s = std::log(raw.mean()) - m.stats.mean();
  if (s <= 0.0) {  // numerically constant sample
    return Gamma{1e6, raw.mean() / 1e6};
  }
  // Minka's closed-form start, then Newton on log(k) - digamma(k) = s.
  double k = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s);
  for (int iter = 0; iter < 60; ++iter) {
    const double f = std::log(k) - digamma(k) - s;
    // d/dk [log k - psi(k)] = 1/k - psi'(k); approximate trigamma by a
    // truncated series accurate enough for Newton.
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

/// The points select_family ranks the fitted families on before its full
/// scans: an evenly strided subsample of the sorted sample.
constexpr std::size_t kRankingPoints = 64;

/// A fitted family's CDF, as select_family's scans call it.  The gamma's
/// evaluates ln Gamma(shape) once per scan, not once per point.
template <typename Distribution>
auto cdf_of(const Distribution& d) {
  return [&d](double x) { return d.cdf(x); };
}
GammaCdf cdf_of(const Gamma& d) { return GammaCdf(d); }

}  // namespace

Result<Exponential> fit_exponential(std::span<const double> sample) {
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

Result<LogNormal> fit_lognormal(std::span<const double> sample) {
  auto m = log_moments(sample, "fit_lognormal");
  if (!m.ok()) return m.error();
  return lognormal_from(m.value());
}

Result<Weibull> fit_weibull(std::span<const double> sample) {
  auto m = log_moments(sample, "fit_weibull");
  if (!m.ok()) return m.error();
  return weibull_from(sample, m.value());
}

double digamma(double x) noexcept {
  if (x < 0.0) {
    // Poles at the negative integers (every double at or below -2^52 is
    // one) and no limit at -inf.  Elsewhere the reflection
    //   psi(x) = psi(1 - x) - pi / tan(pi x),
    // with x reduced modulo 1 first (tan has period pi), lands in the
    // positive range below in one step instead of |x| shifts.
    const double whole = std::floor(x);
    if (x == whole) return std::numeric_limits<double>::quiet_NaN();
    return digamma(1.0 - x) - std::numbers::pi / std::tan(std::numbers::pi * (x - whole));
  }
  // Shift into the asymptotic regime, then use the Bernoulli expansion.
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

Result<Gamma> fit_gamma(std::span<const double> sample) {
  auto m = log_moments(sample, "fit_gamma");
  if (!m.ok()) return m.error();
  return gamma_from(sample, m.value());
}

const char* to_string(Family family) noexcept {
  switch (family) {
    case Family::kExponential: return "exponential";
    case Family::kWeibull: return "weibull";
    case Family::kLogNormal: return "lognormal";
    case Family::kGamma: return "gamma";
  }
  return "unknown";
}

Result<FamilyChoice> select_family(std::span<const double> sample) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "Ecdf: empty sample");
  // The KS scans need the sample ascending; the fits read it in the
  // caller's order, as the public fit_* do.
  std::vector<double> storage;
  const auto sorted = ascending_view(sample, storage);

  // Every family that fits, in the fixed order (a Family's value is its
  // alternative's index).  One log pass serves the three fits that need
  // it; a sample it rejects (a zero, a negative, a non-finite value) fits
  // none of them.
  std::vector<std::variant<Exponential, Weibull, LogNormal, Gamma>> fits;
  if (const auto fit = fit_exponential(sample); fit.ok()) fits.emplace_back(fit.value());
  if (const auto logs = log_moments(sample, "select_family"); logs.ok()) {
    if (const auto fit = weibull_from(sample, logs.value()); fit.ok())
      fits.emplace_back(fit.value());
    fits.emplace_back(lognormal_from(logs.value()));
    if (const auto fit = gamma_from(sample, logs.value()); fit.ok()) fits.emplace_back(fit.value());
  }
  if (fits.empty())
    return Error(ErrorKind::kDomain, "select_family: no family could be fitted");

  const auto ks = [](const auto& fit, std::span<const double> points, double stop_at) {
    return std::visit(
        [&](const auto& d) { return ks_statistic_against_sorted(points, cdf_of(d), stop_at); },
        fit);
  };

  // Scan the likely winner first: rank the fits by their distance on an
  // evenly strided subsample, so the losers' full scans meet a small best
  // distance early and stop.
  std::vector<std::size_t> order(fits.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (sorted.size() > kRankingPoints) {
    std::array<double, kRankingPoints> points;
    for (std::size_t i = 0; i < kRankingPoints; ++i)
      points[i] = sorted[i * sorted.size() / kRankingPoints];
    std::array<double, 4> rough;
    for (const std::size_t f : order)
      rough[f] = ks(fits[f], points, std::numeric_limits<double>::infinity());
    std::stable_sort(order.begin(), order.end(),
                     [&rough](std::size_t a, std::size_t b) { return rough[a] < rough[b]; });
  }

  // The winner is the closest family, ties going to the earlier one in
  // the fixed order.  A scan stops once it cannot win: at the best
  // distance so far for a family after the best (it must be strictly
  // closer), just above it for one before (an equal distance wins).  So
  // only losing scans stop early, and the winner's distance is exact.
  // Until a family is accepted, best.family is the exponential, which no
  // family precedes.
  FamilyChoice best;
  best.ks_distance = 2.0;  // above any possible KS distance
  for (const std::size_t f : order) {
    const auto family = static_cast<Family>(fits[f].index());
    const bool before_best = family < best.family;
    const double stop_at = before_best ? std::nextafter(best.ks_distance, 2.0) : best.ks_distance;
    const double d = ks(fits[f], sorted, stop_at);
    if (d < best.ks_distance || (before_best && d == best.ks_distance)) best = {family, d};
  }
  return best;
}

}  // namespace tsufail::stats
