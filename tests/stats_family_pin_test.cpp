// Pins stats::select_family and the public fitters to the frozen copy in
// testkit/reference_fit.h, bit for bit: the same family, the same KS
// distance, the same fitted parameters and the same error text, on
// draws from each family around the sort cutoff and at fleet scale,
// sorted and unsorted, on tie-heavy, nearly tied and degenerate samples,
// and on both presets' and a fleet-scale log's TBF/TTR samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "data/log_index.h"
#include "data/log_io.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "stats/fit.h"
#include "stats/kernels.h"
#include "testkit/golden.h"
#include "testkit/reference_fit.h"
#include "util/rng.h"

namespace tsufail::testkit {
namespace {

/// Both results fail with the same kind and text, or both succeed and
/// `same` holds for their values.
template <typename T, typename Same>
void expect_same_result(const Result<T>& fast, const Result<T>& frozen, Same&& same) {
  ASSERT_EQ(fast.ok(), frozen.ok())
      << (fast.ok() ? frozen.error().to_string() : fast.error().to_string());
  if (fast.ok()) {
    same(fast.value(), frozen.value());
  } else {
    EXPECT_EQ(fast.error().kind(), frozen.error().kind());
    EXPECT_EQ(fast.error().message(), frozen.error().message());
  }
}

void expect_pinned(std::span<const double> sample) {
  expect_same_result(stats::select_family(sample), reference_select_family(sample),
                     [](const stats::FamilyChoice& a, const stats::FamilyChoice& b) {
                       EXPECT_EQ(a.family, b.family);
                       EXPECT_EQ(a.ks_distance, b.ks_distance);
                     });
  expect_same_result(stats::fit_exponential(sample), reference_fit_exponential(sample),
                     [](const stats::Exponential& a, const stats::Exponential& b) {
                       EXPECT_EQ(a.mean_value, b.mean_value);
                     });
  expect_same_result(stats::fit_weibull(sample), reference_fit_weibull(sample),
                     [](const stats::Weibull& a, const stats::Weibull& b) {
                       EXPECT_EQ(a.shape, b.shape);
                       EXPECT_EQ(a.scale, b.scale);
                     });
  expect_same_result(stats::fit_lognormal(sample), reference_fit_lognormal(sample),
                     [](const stats::LogNormal& a, const stats::LogNormal& b) {
                       EXPECT_EQ(a.mu_log, b.mu_log);
                       EXPECT_EQ(a.sigma_log, b.sigma_log);
                     });
  expect_same_result(stats::fit_gamma(sample), reference_fit_gamma(sample),
                     [](const stats::Gamma& a, const stats::Gamma& b) {
                       EXPECT_EQ(a.shape, b.shape);
                       EXPECT_EQ(a.scale, b.scale);
                     });
}

void expect_pinned_both_orders(std::vector<double> sample) {
  {
    SCOPED_TRACE("unsorted");
    expect_pinned(sample);
  }
  std::sort(sample.begin(), sample.end());
  SCOPED_TRACE("sorted");
  expect_pinned(sample);
}

// --- draws from each family ------------------------------------------------

struct DrawCase {
  stats::Family family;
  std::size_t n;
};

std::vector<double> draw(const DrawCase& c) {
  Rng rng(0xF17 + c.n * 4 + static_cast<std::uint64_t>(c.family));
  std::vector<double> sample(c.n);
  for (double& x : sample) {
    switch (c.family) {
      case stats::Family::kExponential: x = rng.exponential(12.0); break;
      case stats::Family::kWeibull: x = rng.weibull(0.8, 40.0); break;
      case stats::Family::kLogNormal: x = rng.lognormal(2.5, 1.3); break;
      case stats::Family::kGamma: x = rng.gamma(2.2, 9.0); break;
    }
  }
  return sample;
}

class FamilyPinDraws : public ::testing::TestWithParam<DrawCase> {};

TEST_P(FamilyPinDraws, MatchesFrozenReferenceSortedAndUnsorted) {
  expect_pinned_both_orders(draw(GetParam()));
}

std::vector<DrawCase> draw_cases() {
  std::vector<DrawCase> cases;
  for (const stats::Family family : {stats::Family::kExponential, stats::Family::kWeibull,
                                     stats::Family::kLogNormal, stats::Family::kGamma}) {
    // Each side of the sort cutoff and of twice the cutoff.
    for (const std::size_t base : {stats::kRadixSortCutoff, 2 * stats::kRadixSortCutoff}) {
      for (const std::size_t n : {base - 1, base, base + 1}) cases.push_back({family, n});
    }
    for (const std::size_t n : {std::size_t{8}, std::size_t{9}, std::size_t{100000}})
      cases.push_back({family, n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(EachFamilyAndSize, FamilyPinDraws, ::testing::ValuesIn(draw_cases()),
                         [](const ::testing::TestParamInfo<DrawCase>& info) {
                           return std::string(stats::to_string(info.param.family)) + "_n" +
                                  std::to_string(info.param.n);
                         });

// --- tie-heavy and degenerate samples --------------------------------------

/// TTR-like values: recorded to 4 decimals over a narrow range, so most
/// values repeat.
std::vector<double> four_decimal_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample(n);
  for (double& x : sample)
    x = std::max(1e-4, std::round(rng.lognormal(-3.0, 0.8) * 1e4) / 1e4);
  return sample;
}

TEST(FamilyPin, FourDecimalTieHeavySamples) {
  for (const std::size_t n : {std::size_t{64}, stats::kRadixSortCutoff, std::size_t{100000}}) {
    SCOPED_TRACE(n);
    expect_pinned_both_orders(four_decimal_sample(n, 77 + n));
  }
}

TEST(FamilyPin, ConstantSamples) {
  // The Weibull Newton iteration cannot converge on a constant sample,
  // and the gamma fit takes its degenerate branch.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{5000}}) {
    SCOPED_TRACE(n);
    expect_pinned(std::vector<double>(n, 5.0));
  }
}

TEST(FamilyPin, TwoValueSamples) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{9}, std::size_t{5000}}) {
    SCOPED_TRACE(n);
    std::vector<double> alternating(n);
    for (std::size_t i = 0; i < n; ++i) alternating[i] = i % 2 == 0 ? 1.0 : 2.0;
    expect_pinned_both_orders(alternating);
    std::vector<double> one_outlier(n, 1.0);
    one_outlier[n / 2] = 1000.0;
    expect_pinned_both_orders(one_outlier);
  }
}

TEST(FamilyPin, SamplesWithZerosFitOnlyTheExponential) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{5000}}) {
    SCOPED_TRACE(n);
    auto sample = draw({stats::Family::kExponential, n});
    for (std::size_t i = 0; i < n; i += 3) sample[i] = 0.0;
    expect_pinned_both_orders(sample);
    const auto choice = stats::select_family(sample);
    ASSERT_TRUE(choice.ok());
    EXPECT_EQ(choice.value().family, stats::Family::kExponential);
  }
}

TEST(FamilyPin, UnfittableSamples) {
  expect_pinned(std::vector<double>{});
  expect_pinned(std::vector<double>{0.0, 0.0, 0.0});
  expect_pinned(std::vector<double>{1.0, -2.0, 3.0});
  expect_pinned(std::vector<double>{1.0, std::nan(""), 3.0});
  expect_pinned(std::vector<double>{1.0, 2.0, std::numeric_limits<double>::infinity()});
  const auto empty = stats::select_family(std::vector<double>{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().message(), "Ecdf: empty sample");
}

// --- the presets' samples --------------------------------------------------

/// The positive values, in sample order: select_family sees the sorted
/// suffix past the zeros in the TBF and TTR analyses.
std::vector<double> positive(std::span<const double> values) {
  std::vector<double> out;
  for (const double x : values)
    if (x > 0.0) out.push_back(x);
  return out;
}

// --- draws whose families nearly tie ----------------------------------------

TEST(FamilyPin, NearlyTiedExponentialDraws) {
  // On exponential draws the Weibull and gamma shapes fit close to 1, so
  // three families land within a few thousandths of each other, and a
  // ranking on a small subsample can scan a loser before the winner.
  for (const std::size_t n : {std::size_t{65}, std::size_t{1000}, std::size_t{20000}}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::to_string(n) + " draws, seed " + std::to_string(seed));
      Rng rng(seed * 1000 + n);
      std::vector<double> sample(n);
      for (double& x : sample) x = rng.exponential(12.0);
      expect_pinned_both_orders(sample);
    }
  }
}

TEST(FamilyPin, PresetTbfAndTtrSamples) {
  for (const auto* model : {&sim::tsubame2_model(), &sim::tsubame3_model()}) {
    const auto log = sim::generate_log(*model, kGoldenSeed).value();
    const data::LogIndex index(log);
    SCOPED_TRACE(data::to_string(index.machine()));
    const auto hours = index.hours();
    std::vector<double> gaps;
    for (std::size_t i = 1; i < hours.size(); ++i) gaps.push_back(hours[i] - hours[i - 1]);
    for (const auto& sample : {positive(gaps), positive(index.ttr())}) {
      ASSERT_GE(sample.size(), 8u);
      expect_pinned_both_orders(sample);
    }
  }
}

TEST(FamilyPin, FleetScaleTbfAndTtrSamples) {
  // A 10^5-failure Tsubame-3 log as a CSV file holds it: whole-second
  // gaps and 4-decimal repair times, so both samples repeat heavily.
  sim::MachineModel model = sim::tsubame3_model();
  model.total_failures = kFleetGoldenFailures;
  const auto generated = sim::generate_log(model, kGoldenSeed).value();
  const auto log = data::read_log_csv(data::write_log_csv(generated)).value().log;
  const data::LogIndex index(log);
  const auto hours = index.hours();
  std::vector<double> gaps;
  for (std::size_t i = 1; i < hours.size(); ++i) gaps.push_back(hours[i] - hours[i - 1]);
  for (const auto& sample : {positive(gaps), positive(index.ttr())}) {
    ASSERT_GE(sample.size(), kFleetGoldenFailures / 2);
    expect_pinned_both_orders(sample);
  }
}

}  // namespace
}  // namespace tsufail::testkit
