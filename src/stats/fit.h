// Maximum-likelihood fitting of the distribution families in
// distribution.h.  Used by the analysis layer to characterize measured TBF
// and TTR samples, and by tests to verify the simulator generates what its
// models claim.
#pragma once

#include <span>

#include "stats/distribution.h"
#include "util/error.h"

namespace tsufail::stats {

/// MLE for Exponential: mean of the sample.
/// Errors: empty sample or any non-positive observation policy violation
/// (zeros are allowed; negatives are not).
Result<Exponential> fit_exponential(std::span<const double> sample);

/// MLE for LogNormal: moments of log(x).
/// Errors: empty sample or any observation <= 0.
Result<LogNormal> fit_lognormal(std::span<const double> sample);

/// MLE for Weibull via Newton-Raphson on the profile-likelihood shape
/// equation.  Errors: fewer than 2 observations, any observation <= 0, or
/// no convergence (degenerate samples).
Result<Weibull> fit_weibull(std::span<const double> sample);

/// Gamma fit: method-of-moments start refined by Newton steps on the MLE
/// equation log(k) - digamma(k) = log(mean) - mean(log).
/// Errors: fewer than 2 observations or any observation <= 0.
Result<Gamma> fit_gamma(std::span<const double> sample);

/// Digamma function (psi), asymptotic expansion with recurrence shift;
/// negative x goes through the reflection formula.  NaN at the negative
/// integers and at -inf (x = 0 keeps the recurrence's infinite result).
double digamma(double x) noexcept;

/// Which family best fits a sample, chosen by one-sample KS distance.
enum class Family { kExponential, kWeibull, kLogNormal, kGamma };
const char* to_string(Family family) noexcept;

struct FamilyChoice {
  Family family = Family::kExponential;
  double ks_distance = 0.0;
};

/// Fits all four families and returns the one with the smallest KS distance
/// against the sample's ECDF.  Errors: unfittable sample (see fitters).
Result<FamilyChoice> select_family(std::span<const double> sample);

}  // namespace tsufail::stats
