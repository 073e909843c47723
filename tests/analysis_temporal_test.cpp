// Analyzer tests for the temporal analyses: TBF, TTR, clustering, and
// seasonality, on hand-built logs with known answers.
#include <gtest/gtest.h>

#include "analysis/seasonal.h"
#include "analysis/tbf.h"
#include "analysis/temporal_cluster.h"
#include "analysis/ttr.h"

namespace tsufail::analysis {
namespace {

using data::Category;
using data::FailureClass;
using data::FailureLog;

data::FailureRecord rec(int node, Category category, const char* time, double ttr = 10.0) {
  data::FailureRecord r;
  r.node = node;
  r.category = category;
  r.time = parse_time(time).value();
  r.ttr_hours = ttr;
  return r;
}

FailureLog t2_log(std::vector<data::FailureRecord> records) {
  return FailureLog::create(data::tsubame2_spec(), std::move(records)).value();
}

TEST(Tbf, GapsAndMtbf) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01 00:00:00"),
                           rec(2, Category::kCpu, "2012-02-01 10:00:00"),
                           rec(3, Category::kGpu, "2012-02-02 00:00:00")});
  const data::LogIndex index(log);
  auto tbf = analyze_tbf(index);
  ASSERT_TRUE(tbf.ok());
  EXPECT_EQ(tbf.value().tbf_hours, (std::vector<double>{10.0, 14.0}));
  EXPECT_DOUBLE_EQ(tbf.value().mtbf_hours, 12.0);
  EXPECT_DOUBLE_EQ(tbf.value().exposure_mtbf_hours, data::tsubame2_spec().window_hours() / 3.0);
}

TEST(Tbf, FewerThanTwoFailuresIsError) {
  const auto single = t2_log({rec(1, Category::kGpu, "2012-02-01")});
  EXPECT_FALSE(analyze_tbf(data::LogIndex(single)).ok());
  const auto empty = t2_log({});
  EXPECT_FALSE(analyze_tbf(data::LogIndex(empty)).ok());
}

TEST(Tbf, SimultaneousFailuresGiveZeroGaps) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01 00:00:00"),
                           rec(2, Category::kGpu, "2012-02-01 00:00:00")});
  const data::LogIndex index(log);
  auto tbf = analyze_tbf(index);
  ASSERT_TRUE(tbf.ok());
  EXPECT_EQ(tbf.value().tbf_hours, (std::vector<double>{0.0}));
}

TEST(Tbf, PerCategoryRestrictsStream) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01 00:00:00"),
                           rec(2, Category::kCpu, "2012-02-01 06:00:00"),
                           rec(3, Category::kGpu, "2012-02-01 20:00:00")});
  const data::LogIndex index(log);
  auto gpu = analyze_tbf_category(index, Category::kGpu);
  ASSERT_TRUE(gpu.ok());
  EXPECT_EQ(gpu.value().tbf_hours, (std::vector<double>{20.0}));
  EXPECT_FALSE(analyze_tbf_category(index, Category::kCpu).ok());  // one event
  EXPECT_FALSE(analyze_tbf_category(index, Category::kSsd).ok());  // none
}

TEST(Tbf, PerClassStream) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01 00:00:00"),
                           rec(2, Category::kPbs, "2012-02-01 06:00:00"),
                           rec(3, Category::kFan, "2012-02-01 12:00:00"),
                           rec(4, Category::kVm, "2012-02-01 18:00:00")});
  const data::LogIndex index(log);
  auto hw = analyze_tbf_class(index, FailureClass::kHardware);
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(hw.value().tbf_hours, (std::vector<double>{12.0}));
}

TEST(Tbf, ByCategorySortedAscendingByMtbf) {
  std::vector<data::FailureRecord> records;
  // GPU events every 12 h (dense), memory events every 120 h (sparse).
  for (int i = 0; i < 20; ++i) {
    records.push_back(rec(i, Category::kGpu,
                          format_time(parse_time("2012-02-01 00:00:00").value()
                                          .plus_hours(12.0 * i)).c_str()));
  }
  for (int i = 0; i < 6; ++i) {
    records.push_back(rec(i, Category::kMemory,
                          format_time(parse_time("2012-02-01 00:00:00").value()
                                          .plus_hours(120.0 * i)).c_str()));
  }
  const auto log = t2_log(std::move(records));
  auto rows = analyze_tbf_by_category(data::LogIndex(log));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].category, Category::kGpu);
  EXPECT_DOUBLE_EQ(rows.value()[0].mtbf_hours, 12.0);
  EXPECT_EQ(rows.value()[1].category, Category::kMemory);
  EXPECT_DOUBLE_EQ(rows.value()[1].mtbf_hours, 120.0);
  EXPECT_DOUBLE_EQ(rows.value()[0].box.median, 12.0);
}

TEST(Tbf, MinFailuresFilter) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01"),
                           rec(2, Category::kGpu, "2012-02-02"),
                           rec(3, Category::kGpu, "2012-02-03"),
                           rec(4, Category::kCpu, "2012-02-04"),
                           rec(5, Category::kCpu, "2012-02-05")});
  const data::LogIndex index(log);
  auto rows = analyze_tbf_by_category(index, 3);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);  // CPU has only 2 events
}

TEST(Ttr, MttrAndSummary) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01", 10.0),
                           rec(2, Category::kGpu, "2012-02-02", 30.0),
                           rec(3, Category::kGpu, "2012-02-03", 20.0)});
  const data::LogIndex index(log);
  auto ttr = analyze_ttr(index);
  ASSERT_TRUE(ttr.ok());
  EXPECT_DOUBLE_EQ(ttr.value().mttr_hours, 20.0);
  EXPECT_DOUBLE_EQ(ttr.value().summary.median, 20.0);
  EXPECT_DOUBLE_EQ(ttr.value().summary.max, 30.0);
}

TEST(Ttr, EmptyLogIsError) {
  const auto log = t2_log({});
  EXPECT_FALSE(analyze_ttr(data::LogIndex(log)).ok());
}

TEST(Ttr, ByCategorySortedAscendingByMttr) {
  const auto log = t2_log({rec(1, Category::kPbs, "2012-02-01", 2.0),
                           rec(2, Category::kPbs, "2012-02-02", 4.0),
                           rec(3, Category::kSsd, "2012-02-03", 100.0),
                           rec(4, Category::kSsd, "2012-02-04", 300.0)});
  const data::LogIndex index(log);
  auto rows = analyze_ttr_by_category(index);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].category, Category::kPbs);
  EXPECT_DOUBLE_EQ(rows.value()[0].mttr_hours, 3.0);
  EXPECT_EQ(rows.value()[1].category, Category::kSsd);
  EXPECT_DOUBLE_EQ(rows.value()[1].share_percent, 50.0);
}

TEST(Ttr, PerCategoryAndClass) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01", 10.0),
                           rec(2, Category::kPbs, "2012-02-02", 2.0)});
  const data::LogIndex index(log);
  EXPECT_DOUBLE_EQ(analyze_ttr_category(index, Category::kGpu).value().mttr_hours, 10.0);
  EXPECT_DOUBLE_EQ(
      analyze_ttr_class(index, FailureClass::kSoftware).value().mttr_hours, 2.0);
  EXPECT_FALSE(analyze_ttr_category(index, Category::kSsd).ok());
}

TEST(Clustering, BurstyStreamDetected) {
  // Three tight bursts of three events, far apart.
  std::vector<double> hours;
  for (double base : {100.0, 2000.0, 6000.0}) {
    hours.push_back(base);
    hours.push_back(base + 2.0);
    hours.push_back(base + 5.0);
  }
  auto result = analyze_event_clustering(hours, 24.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().cv, 1.5);
  EXPECT_GT(result.value().burstiness, 0.2);
  EXPECT_TRUE(result.value().clustered);
  EXPECT_DOUBLE_EQ(result.value().follow_probability, 6.0 / 8.0);
}

TEST(Clustering, RegularStreamNotClustered) {
  std::vector<double> hours;
  for (int i = 0; i < 50; ++i) hours.push_back(100.0 * i);
  auto result = analyze_event_clustering(hours, 50.0);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().cv, 0.2);
  EXPECT_FALSE(result.value().clustered);
}

TEST(Clustering, AutoWindowSelection) {
  std::vector<double> hours{0.0, 10.0, 20.0, 30.0, 40.0};
  auto result = analyze_event_clustering(hours, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().follow_window_hours, 5.0);  // half the mean gap
}

TEST(Clustering, Errors) {
  EXPECT_FALSE(analyze_event_clustering({1.0, 2.0}, 10.0).ok());
  EXPECT_FALSE(analyze_event_clustering({1.0, 2.0, 3.0}, -1.0).ok());
  EXPECT_FALSE(analyze_event_clustering({5.0, 5.0, 5.0}, 10.0).ok());  // simultaneous
}

TEST(Clustering, MultiGpuStreamFromLog) {
  data::FailureRecord multi1 = rec(1, Category::kGpu, "2012-02-01 00:00:00");
  multi1.gpu_slots = {0, 1};
  data::FailureRecord multi2 = rec(2, Category::kGpu, "2012-02-01 10:00:00");
  multi2.gpu_slots = {1, 2};
  data::FailureRecord multi3 = rec(3, Category::kGpu, "2012-06-01 00:00:00");
  multi3.gpu_slots = {0, 2};
  data::FailureRecord single = rec(4, Category::kGpu, "2012-03-01 00:00:00");
  single.gpu_slots = {0};
  const auto log = t2_log({multi1, multi2, multi3, single});
  auto result = analyze_multi_gpu_clustering(data::LogIndex(log));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().events, 3u);  // singles excluded
}

TEST(Seasonal, MonthlyProfiles) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-10", 10.0),
                           rec(2, Category::kGpu, "2012-02-20", 20.0),
                           rec(3, Category::kGpu, "2012-08-10", 40.0),
                           rec(4, Category::kGpu, "2013-02-10", 30.0)});
  const data::LogIndex index(log);
  auto seasonal = analyze_seasonal(index);
  ASSERT_TRUE(seasonal.ok());
  EXPECT_EQ(seasonal.value().failure_counts[1], 3u);  // February across years
  EXPECT_EQ(seasonal.value().failure_counts[7], 1u);  // August
  EXPECT_EQ(seasonal.value().failure_counts[0], 0u);
  ASSERT_TRUE(seasonal.value().monthly[1].box.has_value());
  EXPECT_DOUBLE_EQ(seasonal.value().monthly[1].box->median, 20.0);
  EXPECT_FALSE(seasonal.value().monthly[0].box.has_value());
  EXPECT_DOUBLE_EQ(seasonal.value().first_half_median_ttr, 20.0);
  EXPECT_DOUBLE_EQ(seasonal.value().second_half_median_ttr, 40.0);
}

TEST(Seasonal, HalfMediansPoolSeveralMonths) {
  // Each half spans three months whose TTRs are out of order in time and
  // interleave across months.  Pooled and sorted:
  //   Jan-Jun: 1 (Jan), 2 (May), 3 (Mar), 6 (May), 8 (Mar), 9 (Jan)
  //   Jul-Dec: 10 (Oct), 12 (Aug), 15 (Dec), 20 (Dec), 25 (Aug), 30 (Oct),
  //            40 (Aug), 50 (Dec)
  // Both counts are even, so each median lies between two values from
  // different months: (3 + 6) / 2 and (20 + 25) / 2.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-01-10", 9.0),
                           rec(2, Category::kGpu, "2012-01-20", 1.0),
                           rec(3, Category::kGpu, "2012-03-05", 8.0),
                           rec(4, Category::kGpu, "2012-03-15", 3.0),
                           rec(5, Category::kGpu, "2012-05-05", 6.0),
                           rec(6, Category::kGpu, "2012-05-15", 2.0),
                           rec(7, Category::kGpu, "2012-08-03", 40.0),
                           rec(8, Category::kGpu, "2012-08-13", 12.0),
                           rec(9, Category::kGpu, "2012-08-23", 25.0),
                           rec(10, Category::kGpu, "2012-10-03", 30.0),
                           rec(11, Category::kGpu, "2012-10-13", 10.0),
                           rec(12, Category::kGpu, "2012-12-03", 50.0),
                           rec(13, Category::kGpu, "2012-12-13", 20.0),
                           rec(14, Category::kGpu, "2012-12-23", 15.0)});
  auto seasonal = analyze_seasonal(data::LogIndex(log));
  ASSERT_TRUE(seasonal.ok());
  EXPECT_DOUBLE_EQ(seasonal.value().first_half_median_ttr, 4.5);
  EXPECT_DOUBLE_EQ(seasonal.value().second_half_median_ttr, 22.5);
  // The months' own boxes read the same samples, each sorted.
  ASSERT_TRUE(seasonal.value().monthly[7].box.has_value());
  EXPECT_DOUBLE_EQ(seasonal.value().monthly[7].box->median, 25.0);  // 12, 25, 40
  EXPECT_DOUBLE_EQ(seasonal.value().monthly[7].box->sample_min, 12.0);
  ASSERT_TRUE(seasonal.value().monthly[11].box.has_value());
  EXPECT_DOUBLE_EQ(seasonal.value().monthly[11].box->median, 20.0);  // 15, 20, 50
  EXPECT_DOUBLE_EQ(seasonal.value().monthly[11].box->sample_max, 50.0);
}

TEST(Seasonal, CorrelationAbsentWithFewMonths) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-10", 10.0),
                           rec(2, Category::kGpu, "2012-03-10", 20.0)});
  const data::LogIndex index(log);
  auto seasonal = analyze_seasonal(index);
  ASSERT_TRUE(seasonal.ok());
  EXPECT_FALSE(seasonal.value().pearson_density_ttr.has_value());
}

TEST(Seasonal, EmptyLogIsError) {
  const auto log = t2_log({});
  EXPECT_FALSE(analyze_seasonal(data::LogIndex(log)).ok());
}

}  // namespace
}  // namespace tsufail::analysis
