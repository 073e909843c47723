// Analyzer tests on small hand-built logs with pen-and-paper answers:
// category breakdown, software loci, node counts, GPU slots, multi-GPU
// involvement, and performance-error-proportionality.
#include <gtest/gtest.h>

#include "analysis/category_breakdown.h"
#include "analysis/gpu_slots.h"
#include "analysis/multi_gpu.h"
#include "analysis/node_counts.h"
#include "analysis/perf_error_prop.h"
#include "analysis/software_loci.h"

namespace tsufail::analysis {
namespace {

using data::Category;
using data::FailureClass;
using data::FailureLog;

data::FailureRecord rec(int node, Category category, const char* time, double ttr = 10.0,
                        std::vector<int> slots = {}, std::string locus = "") {
  data::FailureRecord r;
  r.node = node;
  r.category = category;
  r.time = parse_time(time).value();
  r.ttr_hours = ttr;
  r.gpu_slots = std::move(slots);
  r.root_locus = std::move(locus);
  return r;
}

FailureLog t2_log(std::vector<data::FailureRecord> records) {
  return FailureLog::create(data::tsubame2_spec(), std::move(records)).value();
}

FailureLog t3_log(std::vector<data::FailureRecord> records) {
  return FailureLog::create(data::tsubame3_spec(), std::move(records)).value();
}

TEST(CategoryBreakdown, CountsAndPercents) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01"),
                           rec(2, Category::kGpu, "2012-02-02"),
                           rec(3, Category::kCpu, "2012-02-03"),
                           rec(4, Category::kPbs, "2012-02-04")});
  const data::LogIndex index(log);
  auto breakdown = analyze_categories(index);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_EQ(breakdown.value().total_failures, 4u);
  EXPECT_DOUBLE_EQ(breakdown.value().percent_of(Category::kGpu), 50.0);
  EXPECT_DOUBLE_EQ(breakdown.value().percent_of(Category::kCpu), 25.0);
  EXPECT_DOUBLE_EQ(breakdown.value().percent_of(Category::kSsd), 0.0);
  EXPECT_EQ(breakdown.value().categories.front().category, Category::kGpu);
}

TEST(CategoryBreakdown, ClassShares) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01"),
                           rec(2, Category::kPbs, "2012-02-02"),
                           rec(3, Category::kDown, "2012-02-03"),
                           rec(4, Category::kVm, "2012-02-04")});
  const data::LogIndex index(log);
  auto breakdown = analyze_categories(index);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_DOUBLE_EQ(breakdown.value().percent_of(FailureClass::kHardware), 25.0);
  EXPECT_DOUBLE_EQ(breakdown.value().percent_of(FailureClass::kSoftware), 50.0);
  EXPECT_DOUBLE_EQ(breakdown.value().percent_of(FailureClass::kUnknown), 25.0);
}

TEST(CategoryBreakdown, EmptyLogIsError) {
  const auto log = t2_log({});
  EXPECT_FALSE(analyze_categories(data::LogIndex(log)).ok());
}

TEST(SoftwareLoci, CountsAndDriverDetection) {
  const auto log = t3_log({
      rec(1, Category::kSoftware, "2018-02-01", 1, {}, "GPU driver problem"),
      rec(2, Category::kSoftware, "2018-02-02", 1, {}, "gpu driver problem"),
      rec(3, Category::kSoftware, "2018-02-03", 1, {}, "CUDA version mismatch"),
      rec(4, Category::kSoftware, "2018-02-04", 1, {}, "lustre hang"),
      rec(5, Category::kSoftware, "2018-02-05", 1, {}, ""),
      rec(6, Category::kGpu, "2018-02-06", 1, {0}),  // not software class
  });
  const data::LogIndex index(log);
  auto loci = analyze_software_loci(index);
  ASSERT_TRUE(loci.ok());
  EXPECT_EQ(loci.value().software_failures, 5u);
  EXPECT_EQ(loci.value().distinct_loci, 4u);  // driver, cuda, lustre, unknown
  EXPECT_DOUBLE_EQ(loci.value().gpu_driver_percent, 60.0);  // 2 driver + 1 cuda
  EXPECT_DOUBLE_EQ(loci.value().unknown_percent, 20.0);
  EXPECT_DOUBLE_EQ(loci.value().percent_of("gpu driver problem"), 40.0);
}

TEST(SoftwareLoci, FoldsLabelsThatDifferInCaseAndWhitespace) {
  const auto log = t3_log({
      rec(1, Category::kSoftware, "2018-02-01", 1, {}, "Zfs scrub"),
      rec(2, Category::kSoftware, "2018-02-02", 1, {}, "Lustre hang"),
      rec(3, Category::kSoftware, "2018-02-03", 1, {}, " Unknown "),
      rec(4, Category::kSoftware, "2018-02-04", 1, {}, "  LUSTRE HANG"),
      rec(5, Category::kSoftware, "2018-02-05", 1, {}, "cuda error"),
      rec(6, Category::kSoftware, "2018-02-06", 1, {}, ""),
      rec(7, Category::kSoftware, "2018-02-07", 1, {}, "lustre hang\t"),
      rec(8, Category::kSoftware, "2018-02-08", 1, {}, " CUDA Error"),
      rec(9, Category::kSoftware, "2018-02-09", 1, {}, "apt lock"),
  });
  auto loci = analyze_software_loci(data::LogIndex(log));
  ASSERT_TRUE(loci.ok());
  const SoftwareLoci& l = loci.value();
  EXPECT_EQ(l.software_failures, 9u);
  EXPECT_EQ(l.distinct_loci, 5u);  // lustre hang, unknown, cuda error, apt lock, zfs scrub
  EXPECT_DOUBLE_EQ(l.unknown_percent, 100.0 * 2 / 9);
  EXPECT_DOUBLE_EQ(l.gpu_driver_percent, 100.0 * 2 / 9);
  // Descending by count; ties in normalized-name order, whatever order or
  // spelling the records came in.
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"lustre hang", 3}, {"cuda error", 2}, {"unknown", 2}, {"apt lock", 1}, {"zfs scrub", 1}};
  ASSERT_EQ(l.top.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(l.top[i].locus, expected[i].first) << "rank " << i;
    EXPECT_EQ(l.top[i].count, expected[i].second) << "rank " << i;
  }
  EXPECT_DOUBLE_EQ(l.percent_of("lustre hang"), 100.0 * 3 / 9);
}

TEST(SoftwareLoci, TopNTruncation) {
  std::vector<data::FailureRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(rec(i, Category::kSoftware, "2018-03-01", 1, {},
                          "locus " + std::to_string(i)));
  }
  const auto log = t3_log(std::move(records));
  auto loci = analyze_software_loci(data::LogIndex(log), 3);
  ASSERT_TRUE(loci.ok());
  EXPECT_EQ(loci.value().top.size(), 3u);
  EXPECT_EQ(loci.value().distinct_loci, 10u);
}

TEST(SoftwareLoci, NoSoftwareFailuresIsError) {
  const auto log = t3_log({rec(1, Category::kGpu, "2018-02-01", 1, {0})});
  EXPECT_FALSE(analyze_software_loci(data::LogIndex(log)).ok());
}

TEST(NodeCounts, BucketsAndHeadlines) {
  const auto log = t2_log({
      rec(1, Category::kGpu, "2012-02-01"), rec(1, Category::kGpu, "2012-02-02"),
      rec(1, Category::kGpu, "2012-02-03"),  // node 1: three failures
      rec(2, Category::kCpu, "2012-02-04"), rec(2, Category::kFan, "2012-02-05"),
      rec(3, Category::kPbs, "2012-02-06"),  // node 3: one failure
      rec(4, Category::kSsd, "2012-02-07"),  // node 4: one failure
  });
  const data::LogIndex index(log);
  auto counts = analyze_node_counts(index);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts.value().failed_nodes, 4u);
  EXPECT_EQ(counts.value().total_nodes, 1408u);
  EXPECT_DOUBLE_EQ(counts.value().percent_with(1), 50.0);
  EXPECT_DOUBLE_EQ(counts.value().percent_with(2), 25.0);
  EXPECT_DOUBLE_EQ(counts.value().percent_with(3), 25.0);
  EXPECT_DOUBLE_EQ(counts.value().percent_single_failure, 50.0);
  EXPECT_DOUBLE_EQ(counts.value().percent_multi_failure, 50.0);
  EXPECT_EQ(counts.value().max_failures_on_one_node, 3u);
}

TEST(NodeCounts, RepeatNodeClassSplit) {
  const auto log = t2_log({
      rec(1, Category::kGpu, "2012-02-01"), rec(1, Category::kPbs, "2012-02-02"),
      rec(2, Category::kVm, "2012-02-03"),
  });
  const data::LogIndex index(log);
  auto counts = analyze_node_counts(index);
  ASSERT_TRUE(counts.ok());
  // Node 1 repeats: 1 hardware + 1 software failure land there.
  EXPECT_EQ(counts.value().repeat_node_hardware_failures, 1u);
  EXPECT_EQ(counts.value().repeat_node_software_failures, 1u);
}

TEST(NodeCounts, UnknownClassExcludedFromSplit) {
  const auto log = t2_log({
      rec(1, Category::kDown, "2012-02-01"), rec(1, Category::kDown, "2012-02-02"),
  });
  const data::LogIndex index(log);
  auto counts = analyze_node_counts(index);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts.value().repeat_node_hardware_failures, 0u);
  EXPECT_EQ(counts.value().repeat_node_software_failures, 0u);
}

TEST(GpuSlots, CountsInvolvementsPerSlot) {
  const auto log = t2_log({
      rec(1, Category::kGpu, "2012-02-01", 1, {1}),
      rec(2, Category::kGpu, "2012-02-02", 1, {1, 2}),
      rec(3, Category::kGpu, "2012-02-03", 1, {0, 1, 2}),
      rec(4, Category::kGpu, "2012-02-04", 1, {}),  // unattributed: skipped
      rec(5, Category::kCpu, "2012-02-05"),
  });
  const data::LogIndex index(log);
  auto slots = analyze_gpu_slots(index);
  ASSERT_TRUE(slots.ok());
  EXPECT_EQ(slots.value().attributed_failures, 3u);
  EXPECT_EQ(slots.value().total_involvements, 6u);
  EXPECT_EQ(slots.value().slots[0].count, 1u);
  EXPECT_EQ(slots.value().slots[1].count, 3u);
  EXPECT_EQ(slots.value().slots[2].count, 2u);
  EXPECT_DOUBLE_EQ(slots.value().percent_of(1), 50.0);
  EXPECT_NEAR(slots.value().max_relative_excess, 0.5, 1e-12);  // 3 / 2 - 1
}

TEST(GpuSlots, NoAttributedFailuresIsError) {
  const auto cpu_only = t2_log({rec(1, Category::kCpu, "2012-02-01")});
  EXPECT_FALSE(analyze_gpu_slots(data::LogIndex(cpu_only)).ok());
  const auto no_slots = t2_log({rec(1, Category::kGpu, "2012-02-01", 1, {})});
  EXPECT_FALSE(analyze_gpu_slots(data::LogIndex(no_slots)).ok());
}

TEST(MultiGpu, TableThreeBuckets) {
  const auto log = t2_log({
      rec(1, Category::kGpu, "2012-02-01", 1, {0}),
      rec(2, Category::kGpu, "2012-02-02", 1, {2}),
      rec(3, Category::kGpu, "2012-02-03", 1, {0, 1}),
      rec(4, Category::kGpu, "2012-02-04", 1, {0, 1, 2}),
  });
  const data::LogIndex index(log);
  auto mg = analyze_multi_gpu(index);
  ASSERT_TRUE(mg.ok());
  EXPECT_EQ(mg.value().attributed_failures, 4u);
  EXPECT_EQ(mg.value().count_with(1), 2u);
  EXPECT_EQ(mg.value().count_with(2), 1u);
  EXPECT_EQ(mg.value().count_with(3), 1u);
  EXPECT_DOUBLE_EQ(mg.value().percent_with(1), 50.0);
  EXPECT_DOUBLE_EQ(mg.value().percent_multi, 50.0);
}

TEST(MultiGpu, AllBucketsPresentEvenWhenEmpty) {
  const auto log = t3_log({rec(1, Category::kGpu, "2018-02-01", 1, {0})});
  const data::LogIndex index(log);
  auto mg = analyze_multi_gpu(index);
  ASSERT_TRUE(mg.ok());
  ASSERT_EQ(mg.value().buckets.size(), 4u);  // 1..4 for Tsubame-3
  EXPECT_EQ(mg.value().count_with(4), 0u);
  EXPECT_DOUBLE_EQ(mg.value().percent_with(4), 0.0);
}

TEST(PerfErrorProp, SingleMachineMetric) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-02-01"),
                           rec(2, Category::kGpu, "2012-08-01")});
  const data::LogIndex index(log);
  auto metric = analyze_perf_error_prop(index);
  ASSERT_TRUE(metric.ok());
  const double window = data::tsubame2_spec().window_hours();
  EXPECT_DOUBLE_EQ(metric.value().mtbf_hours, window / 2.0);
  EXPECT_DOUBLE_EQ(metric.value().pflop_hours_per_failure_free_period, 2.3 * window / 2.0);
  EXPECT_EQ(metric.value().components, 7040);
}

TEST(PerfErrorProp, GenerationComparisonRatios) {
  const auto older = t2_log({rec(1, Category::kGpu, "2012-02-01"),
                             rec(2, Category::kGpu, "2012-03-01"),
                             rec(3, Category::kGpu, "2012-04-01"),
                             rec(4, Category::kGpu, "2012-05-01")});
  const data::LogIndex older_index(older);
  const auto newer = t3_log({rec(1, Category::kGpu, "2018-02-01", 1, {0})});
  const data::LogIndex newer_index(newer);
  auto cmp = compare_generations(older_index, newer_index);
  ASSERT_TRUE(cmp.ok());
  EXPECT_NEAR(cmp.value().compute_ratio, 12.1 / 2.3, 1e-12);
  EXPECT_NEAR(cmp.value().component_ratio, 7040.0 / 3240.0, 1e-12);
  EXPECT_GT(cmp.value().mtbf_ratio, 1.0);
  EXPECT_TRUE(cmp.value().reliability_outpaced_shrinkage);
}

}  // namespace
}  // namespace tsufail::analysis
