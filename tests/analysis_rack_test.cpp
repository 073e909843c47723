// Tests for the rack-level spatial analysis, the Gini helper, and the
// per-class/per-category seasonal views.
#include <gtest/gtest.h>

#include "analysis/rack_distribution.h"
#include "analysis/seasonal.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::analysis {
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

TEST(Gini, KnownValues) {
  EXPECT_DOUBLE_EQ(gini_coefficient({1, 1, 1, 1}), 0.0);
  EXPECT_NEAR(gini_coefficient({0, 0, 0, 4}), 0.75, 1e-12);  // (n-1)/n for all-on-one
  EXPECT_NEAR(gini_coefficient({1, 2, 3, 4}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(gini_coefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({0, 0}), 0.0);
}

TEST(RackSpec, Layout) {
  const auto& t2 = data::tsubame2_spec();
  EXPECT_EQ(t2.rack_count(), 44);
  EXPECT_EQ(t2.rack_of(0), 0);
  EXPECT_EQ(t2.rack_of(31), 0);
  EXPECT_EQ(t2.rack_of(32), 1);
  EXPECT_EQ(t2.rack_of(1407), 43);
  const auto& t3 = data::tsubame3_spec();
  EXPECT_EQ(t3.rack_count(), 15);
  EXPECT_EQ(t3.rack_of(539), 14);
}

TEST(RackAnalysis, HandLogCounts) {
  // Nodes 0,1 -> rack 0; node 40 -> rack 1; node 100 -> rack 3.
  const auto log = t2_log({rec(0, Category::kGpu, "2012-02-01"),
                           rec(1, Category::kGpu, "2012-02-02"),
                           rec(40, Category::kCpu, "2012-02-03"),
                           rec(100, Category::kFan, "2012-02-04")});
  const data::LogIndex index(log);
  auto racks = analyze_racks(index);
  ASSERT_TRUE(racks.ok());
  EXPECT_EQ(racks.value().total_racks, 44u);
  EXPECT_EQ(racks.value().racks_with_failures, 3u);
  // Descending order: rack 0 first with 2 failures.
  EXPECT_EQ(racks.value().racks[0].rack, 0);
  EXPECT_EQ(racks.value().racks[0].failures, 2u);
  EXPECT_DOUBLE_EQ(racks.value().racks[0].percent, 50.0);
  EXPECT_DOUBLE_EQ(racks.value().racks[0].per_node_rate, 2.0 / 32.0);
  EXPECT_EQ(racks.value().racks_holding_half, 1u);
}

TEST(RackAnalysis, EmptyLogIsError) {
  const auto log = t2_log({});
  EXPECT_FALSE(analyze_racks(data::LogIndex(log)).ok());
}

TEST(RackAnalysis, CalibratedLogIsNonUniform) {
  // With rack + node heterogeneity the rack distribution must reject
  // uniformity and concentrate failures well above the even split.
  const auto log = sim::generate_log(sim::tsubame2_model(), 3).value();
  const data::LogIndex index(log);
  auto racks = analyze_racks(index).value();
  EXPECT_LT(racks.uniformity_p_value, 0.01);
  EXPECT_GT(racks.gini, 0.25);
  EXPECT_LT(racks.racks_holding_half, racks.total_racks / 3);
}

TEST(RackAnalysis, HeterogeneityOffIsNearUniform) {
  auto model = sim::tsubame2_model();
  model.knobs.enable_node_heterogeneity = false;  // disables rack factor too
  const auto log = sim::generate_log(model, 3).value();
  const data::LogIndex index(log);
  auto racks = analyze_racks(index).value();
  const auto hetero_log = sim::generate_log(sim::tsubame2_model(), 3).value();
  const auto hetero = analyze_racks(data::LogIndex(hetero_log)).value();
  EXPECT_LT(racks.gini, hetero.gini);
  EXPECT_GT(racks.uniformity_p_value, 1e-4);  // no engineered signal left
}

TEST(SeasonalByClass, RestrictsRecords) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-10", 10.0),
                           rec(2, Category::kPbs, "2012-02-15", 2.0),
                           rec(3, Category::kGpu, "2012-08-10", 40.0)});
  const data::LogIndex index(log);
  auto hardware = analyze_seasonal_class(index, data::FailureClass::kHardware);
  ASSERT_TRUE(hardware.ok());
  EXPECT_EQ(hardware.value().failure_counts[1], 1u);  // Feb: GPU only
  EXPECT_EQ(hardware.value().failure_counts[7], 1u);
  auto software = analyze_seasonal_class(index, data::FailureClass::kSoftware);
  ASSERT_TRUE(software.ok());
  EXPECT_EQ(software.value().failure_counts[1], 1u);
  EXPECT_EQ(software.value().failure_counts[7], 0u);
  const auto gpu_only = t2_log({rec(1, Category::kGpu, "2012-02-10")});
  EXPECT_FALSE(
      analyze_seasonal_class(data::LogIndex(gpu_only), data::FailureClass::kSoftware).ok());
}

TEST(SeasonalByCategory, RestrictsRecords) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-10"),
                           rec(2, Category::kSsd, "2012-03-10")});
  const data::LogIndex index(log);
  auto gpu = analyze_seasonal_category(index, Category::kGpu);
  ASSERT_TRUE(gpu.ok());
  EXPECT_EQ(gpu.value().failure_counts[1], 1u);
  EXPECT_EQ(gpu.value().failure_counts[2], 0u);
  EXPECT_FALSE(analyze_seasonal_category(index, Category::kVm).ok());
}

TEST(SeasonalByClass, PaperBrevityClaimOnCalibratedLog) {
  // "Similar trends for different failure types": on Tsubame-2 both the
  // hardware and software TTR seasonality rise in the second half-year.
  double hw_ratio = 0, sw_ratio = 0;
  const int seeds = 5;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const auto log = sim::generate_log(sim::tsubame2_model(), seed).value();
    const data::LogIndex index(log);
    auto hw = analyze_seasonal_class(index, data::FailureClass::kHardware).value();
    auto sw = analyze_seasonal_class(index, data::FailureClass::kSoftware).value();
    hw_ratio += hw.second_half_median_ttr / hw.first_half_median_ttr / seeds;
    sw_ratio += sw.second_half_median_ttr / sw.first_half_median_ttr / seeds;
  }
  EXPECT_GT(hw_ratio, 1.2);
  EXPECT_GT(sw_ratio, 1.2);
}

}  // namespace
}  // namespace tsufail::analysis
