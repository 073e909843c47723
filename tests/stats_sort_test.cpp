// stats::sort_ascending against std::sort: bit-identical output on both
// sides of the radix cutoff for any input without -0.0 or NaN, a defined
// -0.0-first order on +-0 mixes, and the descriptive statistics that sort
// through it returning exactly what a std::sort-ed copy gives.
#include "stats/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "stats/descriptive.h"
#include "util/rng.h"

namespace tsufail::stats {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::size_t> sizes() {
  return {0, 1, 2, 3, kRadixSortCutoff - 1, kRadixSortCutoff, kRadixSortCutoff + 1, 100000};
}

void expect_same_bits(const std::vector<double>& actual, const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  if (actual.empty()) return;  // memcmp's pointers must not be null
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(), actual.size() * sizeof(double)), 0);
}

void expect_sorts_like_std_sort(const std::vector<double>& values) {
  std::vector<double> expected = values;
  std::sort(expected.begin(), expected.end());
  std::vector<double> sorted = values;
  sort_ascending(sorted);
  expect_same_bits(sorted, expected);
  // The radix path alone, below the cutoff too.
  std::vector<double> radix_sorted = values;
  radix_sort_ascending(radix_sorted);
  expect_same_bits(radix_sorted, expected);
}

using Generator = std::function<double(Rng&, std::size_t)>;

/// TTR-like: recorded to 4 decimals over a narrow range, so most repeat.
double four_decimal(Rng& r, std::size_t) {
  return std::round(r.lognormal(-3.0, 0.8) * 1e4) / 1e4;
}

struct Input {
  const char* name;
  Generator value;
};

/// Inputs without -0.0 or NaN, where the two sorts must agree bit for bit.
std::vector<Input> inputs() {
  return {
      {"lognormal", [](Rng& r, std::size_t) { return r.lognormal(3.0, 1.2); }},
      {"signed", [](Rng& r, std::size_t) { return r.uniform(-1e6, 1e6); }},
      {"negative", [](Rng& r, std::size_t) { return -r.exponential(5.0); }},
      {"subnormal_and_infinite",
       [](Rng& r, std::size_t i) {
         switch (i % 5) {
           case 0: return r.uniform() * 1e-310;
           case 1: return -r.uniform() * 1e-310;
           case 2: return i % 2 == 0 ? kInf : -kInf;
           case 3: return 0.0;
           default: return r.uniform(-1e300, 1e300);
         }
       }},
      {"all_equal", [](Rng&, std::size_t) { return 17.25; }},
      {"four_decimal_ties", four_decimal},
      {"ascending", [](Rng&, std::size_t i) { return static_cast<double>(i) * 0.5; }},
      {"descending", [](Rng&, std::size_t i) { return -static_cast<double>(i) * 0.5; }},
  };
}

std::vector<double> make(const Generator& value, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = value(rng, i);
  return out;
}

TEST(SortAscending, BitIdenticalToStdSortAcrossTheCutoff) {
  for (const Input& input : inputs()) {
    for (const std::size_t n : sizes()) {
      SCOPED_TRACE(std::string(input.name) + " n=" + std::to_string(n));
      expect_sorts_like_std_sort(make(input.value, n, 11 + n));
    }
  }
}

TEST(SortAscending, SignedZeroMixesPutNegativeZeroFirstAboveTheCutoff) {
  for (const std::size_t n : sizes()) {
    SCOPED_TRACE(n);
    Rng rng(5 + n);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform();
      values[i] = u < 0.3 ? -0.0 : u < 0.6 ? 0.0 : rng.uniform(-3.0, 3.0);
    }
    std::vector<double> expected = values;
    std::sort(expected.begin(), expected.end());
    std::vector<double> actual = values;
    sort_ascending(actual);
    EXPECT_EQ(actual, expected);  // equal under ==, where +-0 are one value

    // A permutation: as many -0.0s as went in.
    const auto negative_zeros = [](const std::vector<double>& v) {
      return std::count_if(v.begin(), v.end(),
                           [](double x) { return x == 0.0 && std::signbit(x); });
    };
    EXPECT_EQ(negative_zeros(actual), negative_zeros(values));
    if (n < kRadixSortCutoff) continue;  // std::sort: the +-0 order is unspecified
    const auto zeros = std::equal_range(actual.begin(), actual.end(), 0.0);
    EXPECT_TRUE(std::is_partitioned(zeros.first, zeros.second,
                                    [](double x) { return std::signbit(x); }));
  }
}

TEST(SortAscending, DescriptiveStatisticsMatchAStdSortedCopy) {
  const auto sample = make(four_decimal, 100000, 23);
  ASSERT_FALSE(std::is_sorted(sample.begin(), sample.end()));
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  const auto q = [&](double level) { return quantile_sorted(sorted, level).value(); };

  for (const double level : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0})
    EXPECT_EQ(quantile(sample, level).value(), q(level));

  const Summary s = summarize(sample).value();
  EXPECT_EQ(s.min, sorted.front());
  EXPECT_EQ(s.p25, q(0.25));
  EXPECT_EQ(s.median, q(0.5));
  EXPECT_EQ(s.p75, q(0.75));
  EXPECT_EQ(s.p95, q(0.95));
  EXPECT_EQ(s.max, sorted.back());

  const BoxStats b = box_stats(sample).value();
  EXPECT_EQ(b.q1, q(0.25));
  EXPECT_EQ(b.median, q(0.5));
  EXPECT_EQ(b.q3, q(0.75));
  EXPECT_EQ(b.sample_min, sorted.front());
  EXPECT_EQ(b.sample_max, sorted.back());
}

TEST(AscendingView, ReadsSortedInputInPlaceAndSortsTheRestIntoStorage) {
  const std::vector<double> sorted{1.0, 2.0, 2.0, 5.0};
  std::vector<double> storage;
  const auto view = ascending_view(sorted, storage);
  EXPECT_EQ(view.data(), sorted.data());
  EXPECT_TRUE(storage.empty());

  const std::vector<double> unsorted{5.0, 1.0, 2.0, 2.0};
  const auto copy = ascending_view(unsorted, storage);
  EXPECT_EQ(copy.data(), storage.data());
  EXPECT_EQ(storage, sorted);
}

}  // namespace
}  // namespace tsufail::stats
