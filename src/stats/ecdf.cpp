#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "stats/kernels.h"
#include "stats/simd.h"

namespace tsufail::stats {

Ecdf::Ecdf(std::vector<double> sorted) : sorted_(std::move(sorted)) {
  mean_ = stats::mean(sorted_);
}

Result<Ecdf> Ecdf::create(std::span<const double> sample) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "Ecdf: empty sample");
  std::vector<double> sorted(sample.begin(), sample.end());
  // Callers frequently hold pre-sorted samples (time-ordered streams);
  // skip the re-sort for them.
  if (!std::is_sorted(sorted.begin(), sorted.end())) sort_ascending(sorted);
  return Ecdf(std::move(sorted));
}

double Ecdf::evaluate(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

void Ecdf::evaluate_many(std::span<const double> xs, std::span<double> out) const noexcept {
  // upper_bound counts are exact integers and IEEE division is correctly
  // rounded, so batching changes neither — out[i] == evaluate(xs[i])
  // bit-for-bit at every dispatch level.
  std::vector<std::uint32_t> counts(xs.size());
  simd::upper_bound_many(sorted_, xs, counts);
  simd::counts_to_fractions(counts, static_cast<double>(sorted_.size()), out);
}

Result<double> Ecdf::quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0))
    return Error(ErrorKind::kDomain, "Ecdf::quantile level must be in [0,1]");
  if (q == 0.0) return sorted_.front();
  const auto n = static_cast<double>(sorted_.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::min(rank, sorted_.size());
  return sorted_[rank - 1];
}

Result<std::vector<double>> Ecdf::quantile_many(std::span<const double> qs) const {
  for (const double q : qs) {
    if (!(q >= 0.0 && q <= 1.0))
      return Error(ErrorKind::kDomain, "Ecdf::quantile level must be in [0,1]");
  }
  // quantile_indices reproduces quantile()'s rank arithmetic exactly
  // (its lower clamp to rank 1 covers the q == 0 -> front() case).
  std::vector<std::uint32_t> ranks(qs.size());
  simd::quantile_indices(qs, sorted_.size(), ranks);
  std::vector<double> out(qs.size());
  simd::gather(sorted_, ranks, out);
  return out;
}

std::vector<std::pair<double, double>> Ecdf::curve(std::size_t points) const {
  TSUFAIL_REQUIRE(points >= 2, "Ecdf::curve needs at least two points");
  points = std::min(points, sorted_.size());
  std::vector<std::pair<double, double>> series;
  series.reserve(points);
  const auto n = sorted_.size();
  if (points < 2) {  // single-observation sample
    series.emplace_back(sorted_.front(), 1.0);
    return series;
  }
  for (std::size_t k = 0; k < points; ++k) {
    // Evenly spaced ranks from the first to the last observation.
    const std::size_t idx = k * (n - 1) / (points - 1);
    series.emplace_back(sorted_[idx], static_cast<double>(idx + 1) / static_cast<double>(n));
  }
  return series;
}

Result<double> dkw_band_halfwidth(std::size_t n, double level) {
  if (n == 0)
    return Error(ErrorKind::kDomain, "DKW band needs at least one observation");
  if (!(level > 0.0 && level < 1.0))
    return Error(ErrorKind::kDomain, "DKW level must be in (0,1)");
  const double alpha = 1.0 - level;
  return std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(n)));
}

double ks_statistic(const Ecdf& a, const Ecdf& b) {
  // Both ECDFs are step functions, so the supremum is attained at a
  // sample point of one of them; the kernel's single merge sweep visits
  // exactly those points with the same i/n divisions a binary-search
  // scan would compute (bit-identical result, O(n + m) instead of
  // O((n + m) log(n + m))).
  return ks_distance_sorted(a.sorted(), b.sorted());
}

}  // namespace tsufail::stats
