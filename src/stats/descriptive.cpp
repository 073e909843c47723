#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "stats/kernels.h"

namespace tsufail::stats {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ = (n1 * mean_ + n2 * other.mean_) / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(std::span<const double> sample) noexcept {
  RunningStats acc;
  for (double x : sample) acc.add(x);
  return acc.mean();
}

double stddev(std::span<const double> sample) noexcept {
  RunningStats acc;
  for (double x : sample) acc.add(x);
  return acc.stddev();
}

Result<double> quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty())
    return Error(ErrorKind::kDomain, "quantile of empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    return Error(ErrorKind::kDomain, "quantile level must be in [0,1], got " + std::to_string(q));
  // R type-7: h = (n-1)q; linear interpolation between floor and ceil ranks.
  const double h = static_cast<double>(sorted.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Result<double> quantile(std::span<const double> sample, double q) {
  std::vector<double> copy(sample.begin(), sample.end());
  sort_ascending(copy);
  return quantile_sorted(copy, q);
}

Result<Summary> summarize(std::span<const double> sample) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "summarize: empty sample");
  // Analyzers often pass already-ordered samples (LogIndex streams are
  // time-sorted); those are read in place, the rest sorted into a copy.
  std::vector<double> storage;
  const auto sorted = ascending_view(sample, storage);
  RunningStats moments;
  for (double x : sorted) moments.add(x);
  Summary s;
  s.count = sorted.size();
  s.mean = moments.mean();
  s.stddev = moments.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = quantile_sorted(sorted, 0.25).value();
  s.median = quantile_sorted(sorted, 0.50).value();
  s.p75 = quantile_sorted(sorted, 0.75).value();
  s.p95 = quantile_sorted(sorted, 0.95).value();
  return s;
}

Result<BoxStats> box_stats(std::span<const double> sample) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "box_stats: empty sample");
  std::vector<double> storage;
  const auto sorted = ascending_view(sample, storage);
  BoxStats b;
  b.count = sorted.size();
  b.q1 = quantile_sorted(sorted, 0.25).value();
  b.median = quantile_sorted(sorted, 0.50).value();
  b.q3 = quantile_sorted(sorted, 0.75).value();
  b.iqr = b.q3 - b.q1;
  b.mean = mean(sorted);
  b.sample_min = sorted.front();
  b.sample_max = sorted.back();
  const double fence_low = b.q1 - 1.5 * b.iqr;
  const double fence_high = b.q3 + 1.5 * b.iqr;
  b.whisker_low = sorted.front();
  b.whisker_high = sorted.back();
  for (double x : sorted) {
    if (x >= fence_low) {
      b.whisker_low = x;
      break;
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= fence_high) {
      b.whisker_high = *it;
      break;
    }
  }
  for (double x : sorted) {
    if (x < fence_low || x > fence_high) ++b.outliers;
  }
  return b;
}

}  // namespace tsufail::stats
