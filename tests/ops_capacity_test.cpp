// Tests for capacity forecasting and cross-category lead-lag analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/lead_lag.h"
#include "ops/capacity.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail {
namespace {

using data::Category;

data::FailureRecord rec(int node, Category category, const char* time, double ttr = 10.0) {
  data::FailureRecord r;
  r.node = node;
  r.category = category;
  r.time = parse_time(time).value();
  r.ttr_hours = ttr;
  return r;
}

data::FailureLog t2_log(std::vector<data::FailureRecord> records) {
  return data::FailureLog::create(data::tsubame2_spec(), std::move(records)).value();
}

TEST(PoissonUpperQuantile, KnownValues) {
  EXPECT_EQ(ops::poisson_upper_quantile(0.0, 0.01), 0u);
  // Poisson(1): P[X > 3] ~ 0.019, P[X > 4] ~ 0.0037.
  EXPECT_EQ(ops::poisson_upper_quantile(1.0, 0.01), 4u);
  EXPECT_EQ(ops::poisson_upper_quantile(1.0, 0.05), 3u);
  // Large epsilon needs nothing beyond the bulk.
  EXPECT_LE(ops::poisson_upper_quantile(5.0, 0.5), 6u);
}

TEST(Capacity, HandLogArithmetic) {
  // Two failures, 10 h and 30 h repairs, over the ~13728 h window.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-06-01", 10.0),
                           rec(2, Category::kCpu, "2012-07-01", 30.0)});
  auto forecast = ops::forecast_capacity(log).value();
  const double window = log.spec().window_hours();
  EXPECT_NEAR(forecast.failure_rate_per_hour, 2.0 / window, 1e-12);
  EXPECT_DOUBLE_EQ(forecast.mean_repair_hours, 20.0);
  EXPECT_NEAR(forecast.expected_down_nodes, 40.0 / window, 1e-12);
  // Replay: 40 node-hours of outage over the window (non-overlapping).
  EXPECT_NEAR(forecast.measured_mean_down_nodes, 40.0 / window, 1e-12);
  EXPECT_DOUBLE_EQ(forecast.measured_peak_down_nodes, 1.0);
}

TEST(Capacity, OverlappingOutagesRaiseThePeak) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-06-01 00:00:00", 48.0),
                           rec(2, Category::kGpu, "2012-06-01 12:00:00", 48.0),
                           rec(3, Category::kGpu, "2012-06-02 00:00:00", 48.0)});
  auto forecast = ops::forecast_capacity(log).value();
  EXPECT_DOUBLE_EQ(forecast.measured_peak_down_nodes, 3.0);
}

TEST(Capacity, AnalyticMatchesReplayOnCalibratedLog) {
  // Little's law must agree with the interval sweep on a big log.
  double analytic = 0.0, measured = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto log = sim::generate_log(sim::tsubame2_model(), seed).value();
    auto forecast = ops::forecast_capacity(log).value();
    analytic += forecast.expected_down_nodes / 5.0;
    measured += forecast.measured_mean_down_nodes / 5.0;
  }
  EXPECT_NEAR(measured / analytic, 1.0, 0.05);
}

TEST(Capacity, PaperScaleNumbersAreActionable) {
  const auto log = sim::generate_log(sim::tsubame2_model(), 3).value();
  auto forecast = ops::forecast_capacity(log).value();
  // ~897 failures x ~55 h repairs over ~13728 h -> ~3.6 nodes down at any
  // time on Tsubame-2.
  EXPECT_GT(forecast.expected_down_nodes, 2.0);
  EXPECT_LT(forecast.expected_down_nodes, 6.0);
  EXPECT_GE(forecast.provision_for_99, static_cast<std::size_t>(forecast.expected_down_nodes));
  EXPECT_GE(forecast.provision_for_999, forecast.provision_for_99);
  EXPECT_LT(forecast.expected_down_fraction, 0.01);
}

TEST(Capacity, EmptyLogIsError) {
  EXPECT_FALSE(ops::forecast_capacity(t2_log({})).ok());
}

TEST(LeadLag, EngineeredCouplingDetected) {
  // Every GPU failure is followed 2 h later by a PBS failure: the
  // GPU -> PBS pair must show lift >> 1 and a large z-score.
  std::vector<data::FailureRecord> records;
  TimePoint t = parse_time("2012-03-01 00:00:00").value();
  for (int i = 0; i < 30; ++i) {
    records.push_back(rec(i, Category::kGpu, format_time(t).c_str()));
    records.push_back(rec(i, Category::kPbs, format_time(t.plus_hours(2.0)).c_str()));
    t = t.plus_hours(300.0);
  }
  const auto log = t2_log(std::move(records));
  const data::LogIndex index(log);
  auto pair = analysis::analyze_lead_lag_pair(index, Category::kGpu, Category::kPbs, 24.0).value();
  EXPECT_DOUBLE_EQ(pair.observed, 30.0);
  EXPECT_GT(pair.lift, 5.0);
  EXPECT_GT(pair.z_score, 5.0);
  // The reverse direction carries no signal (PBS fires AFTER GPU).
  auto reverse =
      analysis::analyze_lead_lag_pair(index, Category::kPbs, Category::kGpu, 24.0).value();
  EXPECT_LT(reverse.z_score, 2.0);
}

TEST(LeadLag, IndependentStreamsShowNoLift) {
  // Two independent periodic streams, offset so neither follows the other
  // within the window.
  std::vector<data::FailureRecord> records;
  TimePoint t = parse_time("2012-03-01 00:00:00").value();
  for (int i = 0; i < 40; ++i) {
    records.push_back(rec(i, Category::kGpu, format_time(t).c_str()));
    records.push_back(rec(i, Category::kFan, format_time(t.plus_hours(150.0)).c_str()));
    t = t.plus_hours(300.0);
  }
  const auto log = t2_log(std::move(records));
  auto pair = analysis::analyze_lead_lag_pair(data::LogIndex(log), Category::kGpu,
                                              Category::kFan, 24.0)
                  .value();
  EXPECT_DOUBLE_EQ(pair.observed, 0.0);
}

TEST(LeadLag, SelfPairMeasuresSelfExcitation) {
  // Bursty software failures on the calibrated T3 log: Software -> Software
  // within 72 h must exceed independence.
  const auto log = sim::generate_log(sim::tsubame3_model(), 5).value();
  const data::LogIndex index(log);
  auto self_pair =
      analysis::analyze_lead_lag_pair(index, Category::kSoftware, Category::kSoftware).value();
  EXPECT_GT(self_pair.lift, 1.1);
}

TEST(LeadLag, FullMatrixSortedByZ) {
  const auto log = sim::generate_log(sim::tsubame2_model(), 5).value();
  const data::LogIndex index(log);
  auto matrix = analysis::analyze_lead_lag(index, 72.0, 10).value();
  ASSERT_GT(matrix.pairs.size(), 4u);
  for (std::size_t i = 1; i < matrix.pairs.size(); ++i) {
    EXPECT_GE(matrix.pairs[i - 1].z_score, matrix.pairs[i].z_score);
  }
}

TEST(LeadLag, Errors) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-06-01")});
  const data::LogIndex index(log);
  EXPECT_FALSE(analysis::analyze_lead_lag_pair(index, Category::kGpu, Category::kPbs).ok());
  EXPECT_FALSE(analysis::analyze_lead_lag_pair(index, Category::kGpu, Category::kGpu, -1.0).ok());
  EXPECT_FALSE(analysis::analyze_lead_lag(index).ok());
}

}  // namespace
}  // namespace tsufail
