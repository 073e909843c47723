#include "stats/fit.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"

namespace tsufail::stats {
namespace {

std::vector<double> draw(std::size_t n, std::uint64_t seed, auto&& sampler) {
  Rng rng(seed);
  std::vector<double> sample(n);
  for (auto& x : sample) x = sampler(rng);
  return sample;
}

TEST(FitExponential, RecoversMean) {
  const auto sample = draw(20000, 1, [](Rng& r) { return r.exponential(15.0); });
  auto fit = fit_exponential(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().mean_value, 15.0, 0.5);
}

TEST(FitExponential, RejectsBadInput) {
  EXPECT_FALSE(fit_exponential(std::vector<double>{}).ok());
  EXPECT_FALSE(fit_exponential(std::vector<double>{1.0, -2.0}).ok());
  EXPECT_FALSE(fit_exponential(std::vector<double>{0.0, 0.0}).ok());
}

TEST(FitExponential, AcceptsZeros) {
  auto fit = fit_exponential(std::vector<double>{0.0, 2.0, 4.0});
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.value().mean_value, 2.0);
}

TEST(FitLogNormal, RecoversParameters) {
  const auto sample = draw(20000, 2, [](Rng& r) { return r.lognormal(3.0, 0.7); });
  auto fit = fit_lognormal(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().mu_log, 3.0, 0.03);
  EXPECT_NEAR(fit.value().sigma_log, 0.7, 0.03);
}

TEST(FitLogNormal, RejectsNonPositive) {
  EXPECT_FALSE(fit_lognormal(std::vector<double>{1.0, 0.0}).ok());
  EXPECT_FALSE(fit_lognormal(std::vector<double>{}).ok());
}

TEST(FitLogNormal, DegenerateConstantSample) {
  auto fit = fit_lognormal(std::vector<double>{5.0, 5.0, 5.0});
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().median(), 5.0, 1e-9);
  EXPECT_GT(fit.value().sigma_log, 0.0);
}

TEST(FitWeibull, RecoversParameters) {
  const auto sample = draw(20000, 3, [](Rng& r) { return r.weibull(1.4, 25.0); });
  auto fit = fit_weibull(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().shape, 1.4, 0.05);
  EXPECT_NEAR(fit.value().scale, 25.0, 0.8);
}

TEST(FitWeibull, RejectsTinyOrNonPositiveSamples) {
  EXPECT_FALSE(fit_weibull(std::vector<double>{5.0}).ok());
  EXPECT_FALSE(fit_weibull(std::vector<double>{1.0, -1.0}).ok());
}

TEST(FitGamma, RecoversParameters) {
  const auto sample = draw(20000, 4, [](Rng& r) { return r.gamma(2.5, 4.0); });
  auto fit = fit_gamma(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().shape, 2.5, 0.15);
  EXPECT_NEAR(fit.value().scale, 4.0, 0.25);
}

TEST(Digamma, KnownValues) {
  // psi(1) = -gamma (Euler-Mascheroni), psi(2) = 1 - gamma, psi(0.5) = -gamma - 2 ln 2.
  constexpr double kEuler = 0.57721566490153286;
  EXPECT_NEAR(digamma(1.0), -kEuler, 1e-10);
  EXPECT_NEAR(digamma(2.0), 1.0 - kEuler, 1e-10);
  EXPECT_NEAR(digamma(0.5), -kEuler - 2.0 * std::log(2.0), 1e-10);
  EXPECT_NEAR(digamma(10.0), 2.2517525890667211, 1e-10);
}

TEST(Digamma, PolesAndMinusInfinityAreNaNWithoutLooping) {
  // The recurrence shift alone would step |x| times, or never finish
  // once x + 1 == x.
  for (const double x : {-std::numeric_limits<double>::infinity(), -3.0, -1e300, -0x1p60})
    EXPECT_TRUE(std::isnan(digamma(x))) << x;
}

TEST(Digamma, ReflectionForNegativeArguments) {
  // psi(x + 1) = psi(x) + 1/x, stepped down from psi(0.5).
  EXPECT_NEAR(digamma(-0.5), digamma(0.5) + 2.0, 1e-10);
  EXPECT_NEAR(digamma(-1.5), digamma(-0.5) + 2.0 / 3.0, 1e-10);
}

TEST(SelectFamily, PicksExponentialForExponentialData) {
  const auto sample = draw(5000, 5, [](Rng& r) { return r.exponential(10.0); });
  auto choice = select_family(sample);
  ASSERT_TRUE(choice.ok());
  // Exponential is a Weibull/Gamma special case; accept any of the three
  // but demand a good fit.
  EXPECT_LT(choice.value().ks_distance, 0.03);
}

TEST(SelectFamily, PicksLogNormalForLogNormalData) {
  const auto sample = draw(5000, 6, [](Rng& r) { return r.lognormal(2.0, 1.2); });
  auto choice = select_family(sample);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice.value().family, Family::kLogNormal);
  EXPECT_LT(choice.value().ks_distance, 0.03);
}

TEST(SelectFamily, ErrorsOnUnfittableSample) {
  EXPECT_FALSE(select_family(std::vector<double>{}).ok());
}

TEST(SelectFamily, ConcurrentFitsMatchSerialBitForBit) {
  // Gamma- and Weibull-shaped samples fitted on four workers at once.  No
  // study runs two fits together, so this is where TSan sees concurrent
  // fits: it reports a race if the gamma fit's ln Gamma stops going
  // through lgamma_r (lgamma_threadsafe), since glibc's lgamma writes the
  // global signgam.
  std::vector<std::vector<double>> samples;
  for (std::uint64_t k = 0; k < 4; ++k) {
    const double shape = 0.6 + 0.5 * static_cast<double>(k);
    samples.push_back(draw(2000, 40 + k, [shape](Rng& r) { return r.gamma(shape, 12.0); }));
    samples.push_back(draw(2000, 50 + k, [shape](Rng& r) { return r.weibull(shape, 30.0); }));
  }
  std::vector<FamilyChoice> serial;
  for (const auto& sample : samples) serial.push_back(select_family(sample).value());

  std::vector<std::optional<FamilyChoice>> concurrent(samples.size());
  const auto errors =
      parallel_for(samples.size(), 4, [] { return 0; }, [&](int, std::size_t i) -> Result<void> {
        auto choice = select_family(samples[i]);
        if (!choice.ok()) return choice.error();
        concurrent[i] = choice.value();
        return {};
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_FALSE(errors[i].has_value()) << errors[i]->to_string();
    EXPECT_EQ(concurrent[i]->family, serial[i].family) << "sample " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(concurrent[i]->ks_distance),
              std::bit_cast<std::uint64_t>(serial[i].ks_distance))
        << "sample " << i;
  }
}

TEST(FamilyToString, Names) {
  EXPECT_STREQ(to_string(Family::kExponential), "exponential");
  EXPECT_STREQ(to_string(Family::kWeibull), "weibull");
  EXPECT_STREQ(to_string(Family::kLogNormal), "lognormal");
  EXPECT_STREQ(to_string(Family::kGamma), "gamma");
}

// Property sweep: Weibull MLE recovery across a (shape, scale) grid.
struct WeibullCase {
  double shape, scale;
};
class WeibullRecovery : public ::testing::TestWithParam<WeibullCase> {};

TEST_P(WeibullRecovery, ShapeAndScaleWithinFivePercent) {
  const auto [shape, scale] = GetParam();
  const auto sample =
      draw(30000, 100 + static_cast<std::uint64_t>(shape * 10),
           [&](Rng& r) { return r.weibull(shape, scale); });
  auto fit = fit_weibull(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().shape, shape, shape * 0.05);
  EXPECT_NEAR(fit.value().scale, scale, scale * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Grid, WeibullRecovery,
                         ::testing::Values(WeibullCase{0.5, 10.0}, WeibullCase{0.8, 55.0},
                                           WeibullCase{1.0, 15.0}, WeibullCase{1.5, 5.0},
                                           WeibullCase{2.5, 100.0}, WeibullCase{4.0, 1.0}));

// Property sweep: lognormal MLE recovery across a (mu, sigma) grid.
struct LogNormalCase {
  double mu, sigma;
};
class LogNormalRecovery : public ::testing::TestWithParam<LogNormalCase> {};

TEST_P(LogNormalRecovery, ParametersWithinTolerance) {
  const auto [mu, sigma] = GetParam();
  const auto sample = draw(30000, 200 + static_cast<std::uint64_t>(mu * 7 + sigma * 13),
                           [&](Rng& r) { return r.lognormal(mu, sigma); });
  auto fit = fit_lognormal(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().mu_log, mu, 0.05 + 0.02 * std::abs(mu));
  EXPECT_NEAR(fit.value().sigma_log, sigma, 0.05 * sigma + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Grid, LogNormalRecovery,
                         ::testing::Values(LogNormalCase{0.0, 0.3}, LogNormalCase{1.0, 1.0},
                                           LogNormalCase{3.0, 0.7}, LogNormalCase{4.0, 1.5},
                                           LogNormalCase{-1.0, 0.5}));

}  // namespace
}  // namespace tsufail::stats
