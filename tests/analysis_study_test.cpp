// Edge-case tests for run_study: degenerate logs must produce absent
// optionals and empty vectors, never errors (except the empty log).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/study.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::analysis {
namespace {

using data::Category;

data::FailureRecord rec(int node, Category category, const char* time, double ttr = 10.0,
                        std::vector<int> slots = {}) {
  data::FailureRecord r;
  r.node = node;
  r.category = category;
  r.time = parse_time(time).value();
  r.ttr_hours = ttr;
  r.gpu_slots = std::move(slots);
  return r;
}

data::FailureLog t2_log(std::vector<data::FailureRecord> records) {
  return data::FailureLog::create(data::tsubame2_spec(), std::move(records)).value();
}

TEST(RunStudy, EmptyLogIsError) {
  EXPECT_FALSE(run_study(t2_log({})).ok());
}

TEST(RunStudy, SingleRecordLog) {
  auto study = run_study(t2_log({rec(1, Category::kGpu, "2012-06-01", 5.0, {0})}));
  ASSERT_TRUE(study.ok());
  const auto& s = study.value();
  EXPECT_EQ(s.categories.total_failures, 1u);
  EXPECT_FALSE(s.tbf.has_value());                 // one event: no gaps
  EXPECT_TRUE(s.tbf_by_category.empty());
  EXPECT_FALSE(s.multi_gpu_clustering.has_value());
  EXPECT_DOUBLE_EQ(s.ttr.mttr_hours, 5.0);         // TTR always defined
  ASSERT_TRUE(s.multi_gpu.has_value());
  EXPECT_EQ(s.multi_gpu->attributed_failures, 1u);
  EXPECT_DOUBLE_EQ(s.node_counts.percent_single_failure, 100.0);
}

TEST(RunStudy, NoGpuFailures) {
  auto study = run_study(t2_log({rec(1, Category::kCpu, "2012-06-01"),
                                 rec(2, Category::kFan, "2012-06-02"),
                                 rec(3, Category::kPbs, "2012-06-03")}));
  ASSERT_TRUE(study.ok());
  EXPECT_FALSE(study.value().gpu_slots.has_value());
  EXPECT_FALSE(study.value().multi_gpu.has_value());
  EXPECT_FALSE(study.value().multi_gpu_clustering.has_value());
  ASSERT_TRUE(study.value().tbf.has_value());
}

TEST(RunStudy, NoSoftwareFailures) {
  auto study = run_study(t2_log({rec(1, Category::kGpu, "2012-06-01", 1.0, {0}),
                                 rec(2, Category::kGpu, "2012-06-02", 1.0, {1})}));
  ASSERT_TRUE(study.ok());
  EXPECT_FALSE(study.value().software_loci.has_value());
}

TEST(RunStudy, AllFailuresOnOneNode) {
  std::vector<data::FailureRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(
        rec(7, Category::kGpu, format_time(parse_time("2012-06-01 00:00:00").value()
                                               .plus_hours(100.0 * i)).c_str(), 1.0, {0}));
  }
  auto study = run_study(t2_log(std::move(records)));
  ASSERT_TRUE(study.ok());
  EXPECT_EQ(study.value().node_counts.failed_nodes, 1u);
  EXPECT_DOUBLE_EQ(study.value().node_counts.percent_multi_failure, 100.0);
  EXPECT_EQ(study.value().node_counts.max_failures_on_one_node, 10u);
}

TEST(RunStudy, SimultaneousFailures) {
  // All failures at the same instant: TBF gaps are all zero.  The study
  // fits no family; analyze_tbf, which does, must leave it absent, not
  // crash.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-06-01 12:00:00", 1.0, {0}),
                           rec(2, Category::kGpu, "2012-06-01 12:00:00", 2.0, {1}),
                           rec(3, Category::kGpu, "2012-06-01 12:00:00", 3.0, {2})});
  auto study = run_study(log);
  ASSERT_TRUE(study.ok());
  ASSERT_TRUE(study.value().tbf.has_value());
  EXPECT_DOUBLE_EQ(study.value().tbf->mtbf_hours, 0.0);
  EXPECT_FALSE(study.value().tbf->best_family.has_value());

  auto tbf = analyze_tbf(data::LogIndex(log));
  ASSERT_TRUE(tbf.ok());
  EXPECT_DOUBLE_EQ(tbf.value().mtbf_hours, 0.0);
  EXPECT_FALSE(tbf.value().best_family.has_value());
}

TEST(RunStudy, ZeroTtrEverywhere) {
  // No positive TTR to fit: the study fits no family anyway, and
  // analyze_ttr, which does, must leave it absent.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-06-01", 0.0, {0}),
                           rec(2, Category::kCpu, "2012-07-01", 0.0)});
  auto study = run_study(log);
  ASSERT_TRUE(study.ok());
  EXPECT_DOUBLE_EQ(study.value().ttr.mttr_hours, 0.0);
  EXPECT_FALSE(study.value().ttr.best_family.has_value());

  auto ttr = analyze_ttr(data::LogIndex(log));
  ASSERT_TRUE(ttr.ok());
  EXPECT_DOUBLE_EQ(ttr.value().mttr_hours, 0.0);
  EXPECT_FALSE(ttr.value().best_family.has_value());
}

TEST(RunStudy, TinyGeneratedFleetStillRuns) {
  auto model = sim::tsubame3_model();
  model.total_failures = 10;
  const auto log = sim::generate_log(model, 1).value();
  auto study = run_study(log);
  ASSERT_TRUE(study.ok());
  EXPECT_EQ(study.value().categories.total_failures, 10u);
}

TEST(RunStudy, FullCalibratedLogPopulatesEverything) {
  const auto log = sim::generate_log(sim::tsubame3_model(), 99).value();
  auto study = run_study(log);
  ASSERT_TRUE(study.ok());
  const auto& s = study.value();
  EXPECT_TRUE(s.software_loci.has_value());
  EXPECT_TRUE(s.gpu_slots.has_value());
  EXPECT_TRUE(s.multi_gpu.has_value());
  EXPECT_TRUE(s.tbf.has_value());
  EXPECT_FALSE(s.tbf_by_category.empty());
  EXPECT_TRUE(s.multi_gpu_clustering.has_value());
  EXPECT_FALSE(s.ttr_by_category.empty());
  EXPECT_TRUE(s.skipped.empty());  // nothing was undefined for a full log
  // No output prints a best-fit family, so the study fits none, even
  // where analyze_tbf and analyze_ttr would.
  EXPECT_FALSE(s.tbf->best_family.has_value());
  EXPECT_FALSE(s.ttr.best_family.has_value());
}

std::vector<std::string> skipped_names(const StudyReport& report) {
  std::vector<std::string> names;
  for (const auto& skipped : report.skipped) names.push_back(skipped.analysis);
  return names;
}

TEST(RunStudy, SkippedListsGpuAnalysesWhenLogHasNoGpuFailures) {
  auto study = run_study(t2_log({rec(1, Category::kCpu, "2012-06-01"),
                                 rec(2, Category::kFan, "2012-06-02"),
                                 rec(3, Category::kPbs, "2012-06-03")}));
  ASSERT_TRUE(study.ok());
  // Registration order, each with the analysis's own domain error.  The
  // per-category boxes are skipped too: one failure per category is below
  // both analyses' min_failures thresholds.
  EXPECT_EQ(skipped_names(study.value()),
            (std::vector<std::string>{"gpu_slots", "multi_gpu", "tbf_by_category",
                                      "multi_gpu_clustering", "ttr_by_category"}));
  for (const auto& skipped : study.value().skipped) {
    EXPECT_EQ(skipped.error.kind(), ErrorKind::kDomain);
    EXPECT_FALSE(skipped.error.message().empty());
  }
}

TEST(RunStudy, SkippedListsUndefinedAnalysesForSingleRecord) {
  auto study = run_study(t2_log({rec(1, Category::kGpu, "2012-06-01", 5.0, {0})}));
  ASSERT_TRUE(study.ok());
  EXPECT_EQ(skipped_names(study.value()),
            (std::vector<std::string>{"software_loci", "tbf", "tbf_by_category",
                                      "multi_gpu_clustering", "ttr_by_category"}));
}

TEST(RunStudy, SkippedListIsIdenticalAcrossThreadCounts) {
  const auto log = t2_log({rec(1, Category::kCpu, "2012-06-01"),
                           rec(2, Category::kFan, "2012-06-02"),
                           rec(3, Category::kPbs, "2012-06-03")});
  const auto serial = run_study(log, StudyOptions{1});
  ASSERT_TRUE(serial.ok());
  for (std::size_t jobs : {std::size_t{4}, std::size_t{0}}) {
    const auto parallel = run_study(log, StudyOptions{jobs});
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(skipped_names(parallel.value()), skipped_names(serial.value()));
  }
}

TEST(RunStudy, RequiredAnalysisFailureNamesTheAnalysis) {
  // The empty log fails before any analysis; a log that defeats a required
  // analysis but not the empty-log guard does not exist by construction
  // (all required analyses accept any non-empty log), so the error path is
  // exercised through the guard's message instead.
  const auto study = run_study(t2_log({}));
  ASSERT_FALSE(study.ok());
  EXPECT_NE(study.error().message().find("empty log"), std::string::npos);
}

}  // namespace
}  // namespace tsufail::analysis
