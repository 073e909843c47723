// Tests for the extension analyses: node survival and rolling trends.
#include <gtest/gtest.h>

#include "analysis/node_survival.h"
#include "analysis/rolling.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::analysis {
namespace {

using data::Category;

data::FailureRecord rec(int node, const char* time, double ttr = 10.0) {
  data::FailureRecord r;
  r.node = node;
  r.category = Category::kGpu;
  r.time = parse_time(time).value();
  r.ttr_hours = ttr;
  return r;
}

data::FailureLog t2_log(std::vector<data::FailureRecord> records) {
  return data::FailureLog::create(data::tsubame2_spec(), std::move(records)).value();
}

TEST(NodeSurvival, HandLogCensoring) {
  // Two nodes fail (node 1 twice); 1406 nodes never fail.
  const auto log = t2_log({rec(1, "2012-02-01 00:00:00"), rec(1, "2012-03-01 00:00:00"),
                           rec(2, "2012-04-01 00:00:00")});
  const data::LogIndex index(log);
  auto survival = analyze_node_survival(index);
  ASSERT_TRUE(survival.ok());
  const auto& s = survival.value();
  EXPECT_EQ(s.first_failure.observations(), 1408u);
  EXPECT_EQ(s.first_failure.events(), 2u);
  EXPECT_EQ(s.first_failure.censored(), 1406u);
  EXPECT_NEAR(s.fraction_never_failed, 1406.0 / 1408.0, 1e-12);
  EXPECT_FALSE(s.median_first_failure_hours.has_value());  // heavy censoring
  // Refailure sample: node 1 refails after 29 days, node 2 censored.
  EXPECT_EQ(s.refailure.observations(), 2u);
  EXPECT_EQ(s.refailure.events(), 1u);
  ASSERT_TRUE(s.median_refailure_hours.has_value());
  EXPECT_NEAR(*s.median_refailure_hours, 29.0 * 24.0, 1e-6);
}

TEST(NodeSurvival, EmptyLogIsError) {
  const auto log = t2_log({});
  EXPECT_FALSE(analyze_node_survival(data::LogIndex(log)).ok());
}

TEST(NodeSurvival, LemonEffectDetectedOnCalibratedLog) {
  // The heterogeneous hazard makes failed nodes re-fail much faster than
  // fresh nodes fail at all — the paper's repeat-failure observation as a
  // significant log-rank result.
  const auto log = sim::generate_log(sim::tsubame3_model(), 3).value();
  const data::LogIndex index(log);
  auto survival = analyze_node_survival(index).value();
  ASSERT_TRUE(survival.repeat_offender_test.has_value());
  EXPECT_TRUE(survival.failed_nodes_refail_faster);
  EXPECT_LT(survival.repeat_offender_test->p_value, 0.01);
}

TEST(NodeSurvival, UniformFleetShowsWeakerLemonEffect) {
  auto model = sim::tsubame3_model();
  model.knobs.enable_node_heterogeneity = false;
  const auto log = sim::generate_log(model, 3).value();
  const data::LogIndex index(log);
  auto survival = analyze_node_survival(index).value();
  const auto hetero_log = sim::generate_log(sim::tsubame3_model(), 3).value();
  const auto hetero = analyze_node_survival(data::LogIndex(hetero_log)).value();
  ASSERT_TRUE(survival.repeat_offender_test.has_value());
  ASSERT_TRUE(hetero.repeat_offender_test.has_value());
  EXPECT_LT(survival.repeat_offender_test->statistic,
            hetero.repeat_offender_test->statistic);
}

TEST(RollingTrends, WindowBookkeeping) {
  // 10 failures, one every 30 days starting in Feb 2012.
  std::vector<data::FailureRecord> records;
  TimePoint t = parse_time("2012-02-01 00:00:00").value();
  for (int i = 0; i < 10; ++i) {
    records.push_back(rec(i, format_time(t).c_str(), 5.0 + i));
    t = t.plus_hours(30.0 * 24.0);
  }
  const auto log = t2_log(std::move(records));
  const data::LogIndex index(log);
  auto trends = analyze_rolling_trends(index, 60.0, 30.0);
  ASSERT_TRUE(trends.ok());
  EXPECT_GT(trends.value().windows.size(), 10u);
  // A 60-day window over 30-day-spaced events holds 2-3 events mid-log.
  bool saw_two = false;
  for (const auto& window : trends.value().windows) {
    EXPECT_LE(window.failures, 3u);
    saw_two |= window.failures >= 2;
    if (window.failures > 0) {
      EXPECT_GT(window.mtbf_hours, 0.0);
      EXPECT_GT(window.mttr_hours, 0.0);
    }
  }
  EXPECT_TRUE(saw_two);
}

TEST(RollingTrends, WindowsHoldEventsOnBothBounds) {
  // Events exactly 30 and 90 days after the log start, 60-day windows
  // every 30 days: a window [start, start + 60 d] counts an event on its
  // start and one on its end.
  const TimePoint begin = data::tsubame2_spec().log_start;
  const auto log = t2_log({rec(1, format_time(begin.plus_hours(30.0 * 24.0)).c_str()),
                           rec(2, format_time(begin.plus_hours(90.0 * 24.0)).c_str())});
  auto trends = analyze_rolling_trends(data::LogIndex(log), 60.0, 30.0);
  ASSERT_TRUE(trends.ok());
  const auto& windows = trends.value().windows;
  ASSERT_GE(windows.size(), 5u);
  const std::size_t want[] = {1, 2, 1, 1, 0};
  for (std::size_t w = 0; w < 5; ++w) EXPECT_EQ(windows[w].failures, want[w]) << "window " << w;
}

TEST(RollingTrends, Errors) {
  const auto log = t2_log({rec(1, "2012-02-01")});
  const data::LogIndex index(log);
  const auto empty = t2_log({});
  EXPECT_FALSE(analyze_rolling_trends(data::LogIndex(empty), 60, 30).ok());
  EXPECT_FALSE(analyze_rolling_trends(index, -1, 30).ok());
  EXPECT_FALSE(analyze_rolling_trends(index, 60, 0).ok());
  EXPECT_FALSE(analyze_rolling_trends(index, 10000, 30).ok());   // window > span
  EXPECT_FALSE(analyze_rolling_trends(index, 570, 560).ok());    // < 3 windows
}

TEST(RollingTrends, FlatCalibratedLogHasNoStrongTrend) {
  // The calibrated models are stationary in rate (seasonal wiggle only),
  // so the fitted rate slope should be statistically weak.
  double significant = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto log = sim::generate_log(sim::tsubame2_model(), seed).value();
    const data::LogIndex index(log);
    auto trends = analyze_rolling_trends(index).value();
    significant += (trends.rate_trend.slope_p_value < 0.05) ? 1 : 0;
    EXPECT_NEAR(trends.early_late_rate_ratio, 1.0, 0.5) << seed;
  }
  EXPECT_LE(significant, 2);
}

TEST(RollingTrends, DetectsEngineeredBurnIn) {
  // Halve the intensity in the later months by making the profile decay:
  // the early/late ratio and the fitted slope must both flag it.
  auto model = sim::tsubame2_model();
  // Window runs Jan 2012 .. Aug 2013: weight early months heavily across
  // both years is impossible via the 12-month profile alone, so emulate
  // burn-in with a bursty-free early spike: triple January/February/March.
  model.seasonal.failure_intensity = {3.0, 3.0, 3.0, 1.0, 1.0, 1.0,
                                      1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const auto log = sim::generate_log(model, 9).value();
  const data::LogIndex index(log);
  auto trends = analyze_rolling_trends(index).value();
  // Jan-Mar 2012 inflates the first quarter of the T2 window
  // (Jan 2012 .. May 2012) relative to the last (Mar .. Aug 2013).
  EXPECT_GT(trends.early_late_rate_ratio, 1.3);
}

}  // namespace
}  // namespace tsufail::analysis
