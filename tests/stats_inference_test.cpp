// Tests for correlation, bootstrap, and hypothesis-testing utilities.
#include <gtest/gtest.h>

#include <vector>

#include "stats/bootstrap.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/hypothesis.h"
#include "util/rng.h"

namespace tsufail::stats {
namespace {

TEST(Pearson, PerfectLinearRelation) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y).value(), 1.0, 1e-12);
  const std::vector<double> neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg).value(), -1.0, 1e-12);
}

TEST(Pearson, KnownValue) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 1, 4, 3, 5};
  EXPECT_NEAR(pearson(x, y).value(), 0.8, 1e-12);
}

TEST(Pearson, Errors) {
  EXPECT_FALSE(pearson(std::vector<double>{1, 2}, std::vector<double>{1}).ok());
  EXPECT_FALSE(pearson(std::vector<double>{1}, std::vector<double>{1}).ok());
  EXPECT_FALSE(pearson(std::vector<double>{1, 1, 1}, std::vector<double>{1, 2, 3}).ok());
}

TEST(FractionalRanks, TieAveraging) {
  const auto ranks = fractional_ranks(std::vector<double>{10.0, 20.0, 20.0, 30.0});
  EXPECT_EQ(ranks, (std::vector<double>{1.0, 2.5, 2.5, 4.0}));
}

TEST(FractionalRanks, AllTied) {
  const auto ranks = fractional_ranks(std::vector<double>{5.0, 5.0, 5.0});
  EXPECT_EQ(ranks, (std::vector<double>{2.0, 2.0, 2.0}));
}

TEST(Spearman, MonotoneNonlinearIsOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{1, 8, 27, 64, 125};  // x^3: nonlinear but monotone
  EXPECT_NEAR(spearman(x, y).value(), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y).value(), 1.0);
}

TEST(Spearman, IndependentIsNearZero) {
  Rng rng(7);
  std::vector<double> x(2000), y(2000);
  for (auto& v : x) v = rng.uniform();
  for (auto& v : y) v = rng.uniform();
  EXPECT_NEAR(spearman(x, y).value(), 0.0, 0.05);
}

TEST(Bootstrap, MeanCiCoversTruth) {
  Rng data_rng(11);
  std::vector<double> sample(400);
  for (auto& x : sample) x = data_rng.exponential(55.0);
  Rng boot_rng(13);
  auto ci = bootstrap_mean_ci(sample, boot_rng, 2000, 0.95);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci.value().point, mean(sample), 1e-12);
  EXPECT_LT(ci.value().low, ci.value().point);
  EXPECT_GT(ci.value().high, ci.value().point);
  // With n=400 the CI should bracket the true mean comfortably.
  EXPECT_LT(ci.value().low, 55.0);
  EXPECT_GT(ci.value().high, 55.0 * 0.85);
}

TEST(Bootstrap, MedianCi) {
  Rng data_rng(17);
  std::vector<double> sample(300);
  for (auto& x : sample) x = data_rng.lognormal(3.0, 1.0);
  Rng boot_rng(19);
  auto ci = bootstrap_median_ci(sample, boot_rng, 1000);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci.value().low, ci.value().high);
  EXPECT_GT(ci.value().low, 0.0);
}

TEST(Bootstrap, Errors) {
  Rng rng(1);
  const auto stat = [](std::span<const double> s) { return mean(s); };
  EXPECT_FALSE(bootstrap_ci(std::vector<double>{}, stat, rng).ok());
  EXPECT_FALSE(bootstrap_ci(std::vector<double>{1.0}, stat, rng, 0).ok());
  EXPECT_FALSE(bootstrap_ci(std::vector<double>{1.0}, stat, rng, 100, 1.5).ok());
}

TEST(Bootstrap, DeterministicGivenSeed) {
  const std::vector<double> sample{1, 5, 2, 8, 3, 9, 4};
  Rng a(23), b(23);
  auto ca = bootstrap_mean_ci(sample, a, 500);
  auto cb = bootstrap_mean_ci(sample, b, 500);
  ASSERT_TRUE(ca.ok() && cb.ok());
  EXPECT_DOUBLE_EQ(ca.value().low, cb.value().low);
  EXPECT_DOUBLE_EQ(ca.value().high, cb.value().high);
}

TEST(Bootstrap, ConsecutiveCallsDrawFreshResamples) {
  // The caller's generator advances once per call, so back-to-back CIs
  // from one rng must differ (fresh randomness).
  Rng data_rng(43);
  std::vector<double> sample(120);
  for (auto& x : sample) x = data_rng.exponential(20.0);
  Rng rng(47);
  const auto first = bootstrap_mean_ci(sample, rng, 400, 0.95);
  const auto second = bootstrap_mean_ci(sample, rng, 400, 0.95);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first.value().low != second.value().low ||
              first.value().high != second.value().high);
}

TEST(KolmogorovSf, Limits) {
  EXPECT_DOUBLE_EQ(kolmogorov_sf(0.0), 1.0);
  EXPECT_NEAR(kolmogorov_sf(0.5), 0.9639, 5e-4);
  EXPECT_NEAR(kolmogorov_sf(1.36), 0.049, 2e-3);  // the classic 5% point
  EXPECT_LT(kolmogorov_sf(3.0), 1e-6);
}

TEST(KsTwoSample, SameDistributionHighPValue) {
  Rng rng(29);
  std::vector<double> a(800), b(800);
  for (auto& x : a) x = rng.weibull(1.2, 30.0);
  for (auto& x : b) x = rng.weibull(1.2, 30.0);
  auto result = ks_two_sample(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().p_value, 0.01);
}

TEST(KsTwoSample, DifferentDistributionsLowPValue) {
  Rng rng(31);
  std::vector<double> a(800), b(800);
  for (auto& x : a) x = rng.exponential(10.0);
  for (auto& x : b) x = rng.exponential(20.0);
  auto result = ks_two_sample(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().p_value, 1e-6);
  EXPECT_GT(result.value().statistic, 0.15);
}

TEST(KsTwoSample, EmptySampleIsError) {
  EXPECT_FALSE(ks_two_sample(std::vector<double>{}, std::vector<double>{1.0}).ok());
}

TEST(ChiSquareSf, KnownValues) {
  EXPECT_NEAR(chi_square_sf(3.841, 1), 0.05, 2e-3);
  EXPECT_NEAR(chi_square_sf(5.991, 2), 0.05, 2e-3);
  EXPECT_DOUBLE_EQ(chi_square_sf(0.0, 3), 1.0);
}

TEST(ChiSquareGof, UniformCountsMatchUniform) {
  const std::vector<std::size_t> observed{100, 98, 102, 100};
  const std::vector<double> expected{1, 1, 1, 1};
  auto result = chi_square_gof(observed, expected);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().dof, 3u);
  EXPECT_GT(result.value().p_value, 0.9);
}

TEST(ChiSquareGof, SkewedCountsRejectUniform) {
  const std::vector<std::size_t> observed{300, 100, 100, 100};
  const std::vector<double> expected{1, 1, 1, 1};
  auto result = chi_square_gof(observed, expected);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().p_value, 1e-6);
}

TEST(ChiSquareGof, UnnormalizedExpectationsAccepted) {
  const std::vector<std::size_t> observed{30, 70};
  auto a = chi_square_gof(observed, std::vector<double>{0.3, 0.7});
  auto b = chi_square_gof(observed, std::vector<double>{3.0, 7.0});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().statistic, b.value().statistic);
}

TEST(ChiSquareGof, Errors) {
  EXPECT_FALSE(chi_square_gof(std::vector<std::size_t>{1}, std::vector<double>{1.0}).ok());
  EXPECT_FALSE(
      chi_square_gof(std::vector<std::size_t>{1, 2}, std::vector<double>{1.0}).ok());
  EXPECT_FALSE(
      chi_square_gof(std::vector<std::size_t>{1, 2}, std::vector<double>{1.0, 0.0}).ok());
  EXPECT_FALSE(
      chi_square_gof(std::vector<std::size_t>{0, 0}, std::vector<double>{1.0, 1.0}).ok());
}

}  // namespace
}  // namespace tsufail::stats
