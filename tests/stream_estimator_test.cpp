// Property tests for the streaming estimators, anchored on the batch
// analyzers as reference implementations: fed the same in-order data, the
// streaming rolling-window estimator must reproduce
// analysis::analyze_rolling_trends exactly (1e-9), and the P^2 quantile
// must track the batch quantile as the sample grows.
#include "stream/estimators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/rolling.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "stats/descriptive.h"
#include "util/rng.h"

namespace tsufail::stream {
namespace {

void expect_trends_match(const analysis::RollingTrends& batch,
                         const analysis::RollingTrends& streamed) {
  EXPECT_DOUBLE_EQ(batch.window_hours, streamed.window_hours);
  EXPECT_DOUBLE_EQ(batch.step_hours, streamed.step_hours);
  ASSERT_EQ(batch.windows.size(), streamed.windows.size());
  for (std::size_t i = 0; i < batch.windows.size(); ++i) {
    const auto& b = batch.windows[i];
    const auto& s = streamed.windows[i];
    EXPECT_EQ(b.failures, s.failures) << "window " << i;
    EXPECT_NEAR(b.center_hours, s.center_hours, 1e-9) << "window " << i;
    EXPECT_NEAR(b.failures_per_day, s.failures_per_day, 1e-9) << "window " << i;
    EXPECT_NEAR(b.mtbf_hours, s.mtbf_hours, 1e-9) << "window " << i;
    EXPECT_NEAR(b.mttr_hours, s.mttr_hours, 1e-9) << "window " << i;
  }
  EXPECT_NEAR(batch.rate_trend.slope, streamed.rate_trend.slope, 1e-9);
  EXPECT_NEAR(batch.rate_trend.intercept, streamed.rate_trend.intercept, 1e-9);
  EXPECT_NEAR(batch.mttr_trend.slope, streamed.mttr_trend.slope, 1e-9);
  EXPECT_NEAR(batch.early_late_rate_ratio, streamed.early_late_rate_ratio, 1e-9);
}

analysis::RollingTrends stream_trends(const data::FailureLog& log, double window_days,
                                      double step_days) {
  auto estimator =
      RollingWindowEstimator::create(log.spec().window_hours(), window_days, step_days);
  EXPECT_TRUE(estimator.ok());
  const data::LogIndex index(log);
  const auto hours = index.hours();
  const auto ttr = index.ttr();
  for (std::size_t i = 0; i < hours.size(); ++i) estimator.value().observe(hours[i], ttr[i]);
  estimator.value().finish();
  auto trends = estimator.value().trends();
  EXPECT_TRUE(trends.ok());
  return trends.value();
}

class RollingAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollingAgreement, MatchesBatchOnTsubame2) {
  const auto log = sim::generate_log(sim::tsubame2_model(), GetParam()).value();
  const data::LogIndex index(log);
  const auto batch = analysis::analyze_rolling_trends(index, 60.0, 30.0).value();
  expect_trends_match(batch, stream_trends(log, 60.0, 30.0));
}

TEST_P(RollingAgreement, MatchesBatchOnTsubame3) {
  const auto log = sim::generate_log(sim::tsubame3_model(), GetParam()).value();
  const data::LogIndex index(log);
  const auto batch = analysis::analyze_rolling_trends(index, 60.0, 30.0).value();
  expect_trends_match(batch, stream_trends(log, 60.0, 30.0));
}

TEST_P(RollingAgreement, MatchesBatchOnUnevenGrid) {
  // A window/step pair that does not divide the span evenly exercises the
  // grid-accumulation edge cases.
  const auto log = sim::generate_log(sim::tsubame3_model(), GetParam()).value();
  const data::LogIndex index(log);
  const auto batch = analysis::analyze_rolling_trends(index, 45.0, 11.0).value();
  expect_trends_match(batch, stream_trends(log, 45.0, 11.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollingAgreement, ::testing::Range<std::uint64_t>(1, 6));

TEST(RollingWindowEstimator, ErrorsMirrorBatch) {
  EXPECT_FALSE(RollingWindowEstimator::create(1000.0, 0.0, 30.0).ok());
  EXPECT_FALSE(RollingWindowEstimator::create(1000.0, 60.0, 0.0).ok());
  // Window longer than the span.
  EXPECT_FALSE(RollingWindowEstimator::create(24.0, 60.0, 30.0).ok());
  // Fewer than 3 windows.
  EXPECT_FALSE(RollingWindowEstimator::create(70.0 * 24.0, 60.0, 30.0).ok());
}

TEST(RollingWindowEstimator, LatestAdvancesAsStreamPasses) {
  auto estimator = RollingWindowEstimator::create(200.0 * 24.0, 30.0, 10.0).value();
  EXPECT_EQ(estimator.latest(), nullptr);
  estimator.observe(1.0, 2.0);
  EXPECT_EQ(estimator.latest(), nullptr);  // first window still open
  estimator.observe(31.0 * 24.0, 4.0);     // past window [0, 30d]
  ASSERT_NE(estimator.latest(), nullptr);
  EXPECT_EQ(estimator.latest()->failures, 1u);
  EXPECT_NEAR(estimator.latest()->mttr_hours, 2.0, 1e-12);
  estimator.finish();
  EXPECT_EQ(estimator.completed().size(), 18u);  // (200-30)/10 + 1
}

TEST(P2Quantile, RejectsDegenerateQuantiles) {
  EXPECT_FALSE(P2Quantile::create(0.0).ok());
  EXPECT_FALSE(P2Quantile::create(1.0).ok());
  EXPECT_FALSE(P2Quantile::create(-0.5).ok());
  EXPECT_TRUE(P2Quantile::create(0.5).ok());
}

TEST(P2Quantile, ExactForSmallSamples) {
  auto median = P2Quantile::create(0.5).value();
  EXPECT_EQ(median.estimate(), 0.0);
  median.add(5.0);
  EXPECT_DOUBLE_EQ(median.estimate(), 5.0);
  median.add(1.0);
  EXPECT_DOUBLE_EQ(median.estimate(), 3.0);
  median.add(3.0);
  EXPECT_DOUBLE_EQ(median.estimate(), 3.0);
  median.add(9.0);  // {1,3,5,9}: interpolated median = 4
  EXPECT_DOUBLE_EQ(median.estimate(), 4.0);
}

TEST(P2Quantile, TracksBatchQuantileOnLognormal) {
  Rng rng(99);
  std::vector<double> sample;
  auto p50 = P2Quantile::create(0.5).value();
  auto p95 = P2Quantile::create(0.95).value();
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.lognormal(1.0, 0.8);
    sample.push_back(x);
    p50.add(x);
    p95.add(x);
  }
  const double exact_p50 = stats::quantile(sample, 0.5).value();
  const double exact_p95 = stats::quantile(sample, 0.95).value();
  EXPECT_NEAR(p50.estimate(), exact_p50, 0.05 * exact_p50);
  EXPECT_NEAR(p95.estimate(), exact_p95, 0.05 * exact_p95);
}

TEST(EwmaRate, ConvergesToStationaryRate) {
  // 1 event every 6 hours = 4/day; after many taus the estimate settles.
  EwmaRate rate(48.0);
  TimePoint t(0);
  for (int i = 0; i < 400; ++i) {
    rate.observe(t);
    t = t.plus_hours(6.0);
  }
  EXPECT_NEAR(rate.per_day(t), 4.0, 0.3);
  // Silence decays the estimate.
  EXPECT_LT(rate.per_day(t.plus_hours(240.0)), 0.1);
}

TEST(EwmaRate, ZeroBeforeFirstEvent) {
  EwmaRate rate(24.0);
  EXPECT_DOUBLE_EQ(rate.per_day(TimePoint(1000)), 0.0);
}

TEST(SlidingCounter, CountsTrailingWindowOnly) {
  SlidingCounter counter(24.0);
  TimePoint t0(0);
  counter.observe(t0);
  counter.observe(t0.plus_hours(10.0));
  counter.observe(t0.plus_hours(20.0));
  EXPECT_EQ(counter.count(t0.plus_hours(20.0)), 3u);  // all inside the 24 h window
  EXPECT_EQ(counter.count(t0.plus_hours(30.0)), 2u);  // t0 expired
  EXPECT_EQ(counter.count(t0.plus_hours(50.0)), 0u);
}

TEST(WelfordStats, IsTheBatchAccumulator) {
  // The alias must behave identically to stats::RunningStats (it is one).
  WelfordStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace tsufail::stream
