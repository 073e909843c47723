#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace tsufail {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedResetsStream) {
  Rng a(99);
  const auto first = a();
  a.reseed(99);
  EXPECT_EQ(a(), first);
}

TEST(Rng, ForkedStreamsAreIndependentOfEachOther) {
  Rng root(7);
  Rng c1 = root.fork(1);
  Rng c2 = root.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1() == c2());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng root_a(7), root_b(7);
  Rng c1 = root_a.fork(5);
  Rng c2 = root_b.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(c1(), c2());
}

TEST(ForkSeed, PinnedValues) {
  // fork_seed is THE library-wide seed-derivation contract: recorded
  // sweeps, golden repair reports, and ops-layer stage streams all
  // depend on these exact values.  Changing the scheme must fail here.
  EXPECT_EQ(fork_seed(1, 0), 0xe99ff867dbf682c9ULL);
  EXPECT_EQ(fork_seed(1, 1), 0xf893a2eefb32555eULL);
  EXPECT_EQ(fork_seed(42, 0), 0x28efe333b266f103ULL);
  EXPECT_EQ(fork_seed(42, 7), 0xcc868f8d9bd23f76ULL);
  EXPECT_EQ(fork_seed(0x75E5FA11ULL, 3), 0xd644650f819b175cULL);
}

TEST(ForkSeed, StreamsDistinctAndNeverBase) {
  const std::uint64_t base = 0xDEADBEEFULL;
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 1024; ++stream) {
    const std::uint64_t seed = fork_seed(base, stream);
    EXPECT_NE(seed, base);
    EXPECT_TRUE(seen.insert(seed).second) << "collision at stream " << stream;
  }
  // Distinct bases produce distinct streams too (no aliasing between the
  // replicate axis and the stage-stream axis in practice).
  EXPECT_NE(fork_seed(base, 1), fork_seed(base + 1, 0));
}

TEST(ForkSeed, SeedsYieldUncorrelatedEngines) {
  Rng a(fork_seed(5, 0));
  Rng b(fork_seed(5, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
}

TEST(Rng, UniformIndexOneIsAlwaysZero) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

double sample_mean(std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  std::vector<double> sample(50000);
  for (auto& x : sample) x = rng.normal(2.0, 3.0);
  const double mean = sample_mean(sample);
  double var = 0.0;
  for (double x : sample) var += (x - mean) * (x - mean);
  var /= static_cast<double>(sample.size());
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  std::vector<double> sample(50000);
  for (auto& x : sample) x = rng.exponential(15.0);
  EXPECT_NEAR(sample_mean(sample), 15.0, 0.5);
  for (double x : sample) EXPECT_GE(x, 0.0);
}

TEST(Rng, WeibullMeanMatchesClosedForm) {
  Rng rng(23);
  const double shape = 1.5, scale = 10.0;
  std::vector<double> sample(50000);
  for (auto& x : sample) x = rng.weibull(shape, scale);
  const double expected = scale * std::tgamma(1.0 + 1.0 / shape);
  EXPECT_NEAR(sample_mean(sample), expected, expected * 0.03);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng rng(29);
  std::vector<double> sample(50000);
  for (auto& x : sample) x = rng.weibull(1.0, 8.0);
  EXPECT_NEAR(sample_mean(sample), 8.0, 0.4);
}

TEST(Rng, LognormalMeanMatchesClosedForm) {
  Rng rng(31);
  const double mu = 1.0, sigma = 0.8;
  std::vector<double> sample(80000);
  for (auto& x : sample) x = rng.lognormal(mu, sigma);
  const double expected = std::exp(mu + sigma * sigma / 2.0);
  EXPECT_NEAR(sample_mean(sample), expected, expected * 0.05);
}

TEST(Rng, GammaMeanMatchesForShapeAboveOne) {
  Rng rng(37);
  std::vector<double> sample(50000);
  for (auto& x : sample) x = rng.gamma(3.0, 2.0);
  EXPECT_NEAR(sample_mean(sample), 6.0, 0.2);
}

TEST(Rng, GammaMeanMatchesForShapeBelowOne) {
  Rng rng(41);
  std::vector<double> sample(50000);
  for (auto& x : sample) x = rng.gamma(0.2, 5.0);
  EXPECT_NEAR(sample_mean(sample), 1.0, 0.08);
  for (double x : sample) EXPECT_GE(x, 0.0);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(43);
  double total = 0.0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) total += static_cast<double>(rng.poisson(2.5));
  EXPECT_NEAR(total / draws, 2.5, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesSplitting) {
  Rng rng(47);
  double total = 0.0;
  const int draws = 5000;
  for (int i = 0; i < draws; ++i) total += static_cast<double>(rng.poisson(150.0));
  EXPECT_NEAR(total / draws, 150.0, 1.5);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(53);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(DiscreteSampler, RejectsBadInput) {
  EXPECT_FALSE(DiscreteSampler::create(std::vector<double>{}).ok());
  EXPECT_FALSE(DiscreteSampler::create(std::vector<double>{1.0, -0.5}).ok());
  EXPECT_FALSE(DiscreteSampler::create(std::vector<double>{0.0, 0.0}).ok());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DiscreteSampler::create(std::vector<double>{1.0, inf}).ok());
}

TEST(DiscreteSampler, NormalizedProbabilities) {
  auto sampler = DiscreteSampler::create(std::vector<double>{2.0, 6.0, 2.0});
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler.value().probability(0), 0.2);
  EXPECT_DOUBLE_EQ(sampler.value().probability(1), 0.6);
  EXPECT_DOUBLE_EQ(sampler.value().probability(2), 0.2);
}

TEST(DiscreteSampler, EmpiricalFrequenciesMatchWeights) {
  auto sampler = DiscreteSampler::create(std::vector<double>{1.0, 3.0, 6.0});
  ASSERT_TRUE(sampler.ok());
  Rng rng(59);
  std::vector<int> counts(3, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.value().sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.01);
}

TEST(DiscreteSampler, SingleOutcome) {
  auto sampler = DiscreteSampler::create(std::vector<double>{5.0});
  ASSERT_TRUE(sampler.ok());
  Rng rng(61);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler.value().sample(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightOutcomeNeverDrawn) {
  auto sampler = DiscreteSampler::create(std::vector<double>{1.0, 0.0, 1.0});
  ASSERT_TRUE(sampler.ok());
  Rng rng(67);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(sampler.value().sample(rng), 1u);
}

// Property sweep: empirical mean of each distribution family tracks its
// analytic mean across a parameter grid.
struct DistCase {
  const char* family;
  double p1, p2;
  double expected_mean;
};

// Names each case "family(p1,p2)". Without it gtest dumps the struct's
// bytes, which include the address of `family`, so the test names (and the
// ctest names discovered from them) would change from build to build.
void PrintTo(const DistCase& c, std::ostream* os) {
  *os << c.family << "(" << c.p1 << "," << c.p2 << ")";
}

class VariateMeans : public ::testing::TestWithParam<DistCase> {};

TEST_P(VariateMeans, EmpiricalMeanTracksAnalytic) {
  const auto& c = GetParam();
  Rng rng(71);
  const int draws = 60000;
  double total = 0.0;
  for (int i = 0; i < draws; ++i) {
    if (std::string_view(c.family) == "exp") total += rng.exponential(c.p1);
    else if (std::string_view(c.family) == "weibull") total += rng.weibull(c.p1, c.p2);
    else if (std::string_view(c.family) == "lognormal") total += rng.lognormal(c.p1, c.p2);
    else total += rng.gamma(c.p1, c.p2);
  }
  const double mean = total / draws;
  EXPECT_NEAR(mean, c.expected_mean, std::max(0.05 * c.expected_mean, 0.02))
      << c.family << "(" << c.p1 << "," << c.p2 << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VariateMeans,
    ::testing::Values(DistCase{"exp", 1.0, 0, 1.0}, DistCase{"exp", 55.0, 0, 55.0},
                      DistCase{"weibull", 0.7, 10.0, 10.0 * 1.26582},
                      DistCase{"weibull", 2.0, 4.0, 4.0 * 0.886227},
                      DistCase{"lognormal", 0.0, 0.5, 1.13315},
                      DistCase{"lognormal", 3.0, 1.0, 33.1155},
                      DistCase{"gamma", 0.5, 2.0, 1.0}, DistCase{"gamma", 9.0, 0.5, 4.5}));

}  // namespace
}  // namespace tsufail
