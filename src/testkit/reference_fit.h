// tsufail::testkit — a frozen reference copy of stats family selection.
//
// stats::select_family and its four maximum-likelihood fitters, exactly
// as they stood before the fast path learned to share its sorted sample,
// its logs and its Welford pass between the fits and to stop a KS scan
// once a family can no longer win.  The copy sorts with std::sort,
// recomputes log(x) in every fitter, evaluates ln Gamma(shape) at every
// gamma CDF point and scans every KS distance to the end.
//
// The fast path must agree with this copy bit for bit: the same family,
// the same KS distance, the same fitted parameters and the same error
// text.  Do not "fix" or speed up anything here; it is the pin.
#pragma once

#include <span>

#include "stats/distribution.h"
#include "stats/fit.h"
#include "util/error.h"

namespace tsufail::testkit {

Result<stats::Exponential> reference_fit_exponential(std::span<const double> sample);
Result<stats::LogNormal> reference_fit_lognormal(std::span<const double> sample);
Result<stats::Weibull> reference_fit_weibull(std::span<const double> sample);
Result<stats::Gamma> reference_fit_gamma(std::span<const double> sample);

/// The gamma CDF with ln Gamma(shape) evaluated per point.
double reference_gamma_cdf(const stats::Gamma& gamma, double x) noexcept;

/// Fits all four families to `sample` and returns the one whose CDF has
/// the smallest one-sample KS distance to the sample's ECDF (ties go to
/// the earlier family: exponential, Weibull, lognormal, gamma).
Result<stats::FamilyChoice> reference_select_family(std::span<const double> sample);

}  // namespace tsufail::testkit
