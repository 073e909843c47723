// End-to-end integration: simulate -> serialize -> parse -> analyze, and
// cross-checks between independently computed views of the same log.
#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/study.h"
#include "data/log_io.h"
#include "ops/availability.h"
#include "ops/checkpoint.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail {
namespace {

TEST(EndToEnd, SimulateSerializeParseAnalyze) {
  const auto original = sim::generate_log(sim::tsubame3_model(), 12345).value();
  const std::string path = ::testing::TempDir() + "/tsufail_e2e.csv";
  ASSERT_TRUE(data::write_log_file(path, original).ok());

  auto report = data::read_log_file(path, data::ReadPolicy::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().row_errors.empty());
  const auto& parsed = report.value().log;

  const auto study_direct = analysis::run_study(original).value();
  const auto study_parsed = analysis::run_study(parsed).value();

  // The full study must be identical through the serialization boundary
  // (TTR is serialized at 1e-4 h precision; compare at that tolerance).
  EXPECT_EQ(study_parsed.categories.total_failures, study_direct.categories.total_failures);
  for (std::size_t i = 0; i < study_direct.categories.categories.size(); ++i) {
    EXPECT_EQ(study_parsed.categories.categories[i].count,
              study_direct.categories.categories[i].count);
  }
  EXPECT_NEAR(study_parsed.ttr.mttr_hours, study_direct.ttr.mttr_hours, 1e-3);
  ASSERT_TRUE(study_direct.tbf.has_value() && study_parsed.tbf.has_value());
  EXPECT_NEAR(study_parsed.tbf->mtbf_hours, study_direct.tbf->mtbf_hours, 1e-9);
  ASSERT_TRUE(study_parsed.multi_gpu.has_value());
  EXPECT_EQ(study_parsed.multi_gpu->attributed_failures,
            study_direct.multi_gpu->attributed_failures);
  ASSERT_TRUE(study_parsed.software_loci.has_value());
  EXPECT_EQ(study_parsed.software_loci->distinct_loci, study_direct.software_loci->distinct_loci);
  std::remove(path.c_str());
}

TEST(EndToEnd, StudyInternallyConsistent) {
  const auto log = sim::generate_log(sim::tsubame2_model(), 54321).value();
  const auto study = analysis::run_study(log).value();

  // Category shares sum to 100.
  double share_sum = 0.0;
  for (const auto& share : study.categories.categories) share_sum += share.percent;
  EXPECT_NEAR(share_sum, 100.0, 1e-9);

  // Node buckets account for every failed node, and bucket-weighted
  // failure totals equal the log size.
  std::size_t nodes = 0, failures = 0;
  for (const auto& bucket : study.node_counts.buckets) {
    nodes += bucket.nodes;
    failures += bucket.nodes * bucket.failures;
  }
  EXPECT_EQ(nodes, study.node_counts.failed_nodes);
  EXPECT_EQ(failures, log.size());

  // Table III totals match the slot-attribution view.
  ASSERT_TRUE(study.multi_gpu.has_value() && study.gpu_slots.has_value());
  EXPECT_EQ(study.multi_gpu->attributed_failures, study.gpu_slots->attributed_failures);
  std::size_t involvements = 0;
  for (const auto& bucket : study.multi_gpu->buckets)
    involvements += bucket.count * static_cast<std::size_t>(bucket.gpus);
  EXPECT_EQ(involvements, study.gpu_slots->total_involvements);

  // Monthly failure counts sum to the log size.
  std::size_t monthly = 0;
  for (std::size_t count : study.seasonal.failure_counts) monthly += count;
  EXPECT_EQ(monthly, log.size());

  // TBF sample size is n - 1 and gaps sum to the observed span.
  ASSERT_TRUE(study.tbf.has_value());
  EXPECT_EQ(study.tbf->tbf_hours.size(), log.size() - 1);
  double gap_sum = 0.0;
  for (double gap : study.tbf->tbf_hours) gap_sum += gap;
  const data::LogIndex index(log);
  const auto hours = index.hours();
  EXPECT_NEAR(gap_sum, hours.back() - hours.front(), 1e-6);
}

TEST(EndToEnd, OpsPipelineOnMeasuredMtbf) {
  // The paper's implication chain: measure MTBF -> plan checkpoints.
  const auto t2 = sim::generate_log(sim::tsubame2_model(), 2).value();
  const data::LogIndex t2_index(t2);
  const auto t3 = sim::generate_log(sim::tsubame3_model(), 2).value();
  const data::LogIndex t3_index(t3);
  const double mtbf2 = analysis::analyze_tbf(t2_index).value().exposure_mtbf_hours;
  const double mtbf3 = analysis::analyze_tbf(t3_index).value().exposure_mtbf_hours;

  const auto plan2 = ops::plan_checkpointing(0.25, mtbf2).value();
  const auto plan3 = ops::plan_checkpointing(0.25, mtbf3).value();
  EXPECT_GT(plan3.daly_hours, plan2.daly_hours);
  EXPECT_GT(plan3.efficiency_at_daly, plan2.efficiency_at_daly);
  EXPECT_GT(plan2.efficiency_at_daly, 0.7);

  const auto availability = ops::analyze_availability(t3).value();
  EXPECT_GT(availability.availability, 0.0);
  EXPECT_LT(availability.availability, 1.0);
}

TEST(EndToEnd, LenientParsingRecoversFromInjectedCorruption) {
  // Corrupt ~5% of the serialized rows; lenient parsing must recover the
  // rest and the study must still run.
  auto log = sim::generate_log(sim::tsubame3_model(), 31415).value();
  std::string csv = data::write_log_csv(log);

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < csv.size()) {
    auto end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    lines.push_back(csv.substr(start, end - start));
    start = end + 1;
  }
  std::size_t corrupted = 0;
  for (std::size_t i = 1; i < lines.size(); i += 20) {  // every 20th data row
    lines[i] = "garbage,row," + std::to_string(i);
    ++corrupted;
  }
  std::string broken;
  for (const auto& line : lines) broken += line + "\n";

  auto report = data::read_log_csv(broken, data::ReadPolicy::kLenient);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().row_errors.size(), corrupted);
  EXPECT_EQ(report.value().log.size(), log.size() - corrupted);
  EXPECT_TRUE(analysis::run_study(report.value().log).ok());
}

TEST(EndToEnd, TwoGenerationComparisonReproducesHeadlines) {
  const auto t2 = sim::generate_log(sim::tsubame2_model(), 2021).value();
  const auto t3 = sim::generate_log(sim::tsubame3_model(), 2021).value();
  const auto s2 = analysis::run_study(t2).value();
  const auto s3 = analysis::run_study(t3).value();

  // The four cross-generation headlines of the paper:
  // 1. dominant failure type flips from GPU to software;
  EXPECT_EQ(s2.categories.categories.front().category, data::Category::kGpu);
  EXPECT_EQ(s3.categories.categories.front().category, data::Category::kSoftware);
  // 2. MTBF improves ~4x or more;
  EXPECT_GT(s3.tbf->exposure_mtbf_hours / s2.tbf->exposure_mtbf_hours, 4.0);
  // 3. MTTR stays roughly flat;
  EXPECT_LT(std::abs(s3.ttr.mttr_hours - s2.ttr.mttr_hours),
            0.5 * std::min(s3.ttr.mttr_hours, s2.ttr.mttr_hours));
  // 4. multi-GPU involvement collapses from ~70% to < 8%.
  EXPECT_GT(s2.multi_gpu->percent_multi, 60.0);
  EXPECT_LT(s3.multi_gpu->percent_multi, 8.0);
}

}  // namespace
}  // namespace tsufail
