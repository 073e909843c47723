// Calibration tests: the generated synthetic logs must reproduce the
// statistics the paper reports (DESIGN.md section 4), within tolerances
// that reflect single-realization sampling noise.  These tests are the
// library's core claim — "the analyzer recovers the paper's numbers from
// fleetsim's logs" — so they run the full simulate -> analyze loop.
#include <gtest/gtest.h>

#include "analysis/study.h"
#include "sim/generator.h"
#include "sim/montecarlo.h"
#include "sim/tsubame_models.h"

namespace tsufail {
namespace {

using data::Category;
using data::FailureClass;

const analysis::StudyReport& t2_study() {
  static const auto report = [] {
    auto log = sim::generate_log(sim::tsubame2_model(), 20210607).value();
    return analysis::run_study(log).value();
  }();
  return report;
}

const analysis::StudyReport& t3_study() {
  static const auto report = [] {
    auto log = sim::generate_log(sim::tsubame3_model(), 20210607).value();
    return analysis::run_study(log).value();
  }();
  return report;
}

// ---- Figure 2: category shares ---------------------------------------

TEST(CalibrationFig2, Tsubame2GpuAndCpuSharesExact) {
  EXPECT_NEAR(t2_study().categories.percent_of(Category::kGpu), 44.37, 0.1);
  EXPECT_NEAR(t2_study().categories.percent_of(Category::kCpu), 1.78, 0.1);
}

TEST(CalibrationFig2, Tsubame3HeadlineSharesExact) {
  EXPECT_NEAR(t3_study().categories.percent_of(Category::kSoftware), 50.59, 0.2);
  EXPECT_NEAR(t3_study().categories.percent_of(Category::kGpu), 27.81, 0.2);
  EXPECT_NEAR(t3_study().categories.percent_of(Category::kCpu), 3.25, 0.2);
}

TEST(CalibrationFig2, DominantCategoryFlips) {
  // GPU leads on Tsubame-2; Software leads on Tsubame-3.
  EXPECT_EQ(t2_study().categories.categories.front().category, Category::kGpu);
  EXPECT_EQ(t3_study().categories.categories.front().category, Category::kSoftware);
}

TEST(CalibrationFig2, GpuFailuresFarExceedCpuOnBoth) {
  EXPECT_GT(t2_study().categories.percent_of(Category::kGpu),
            10.0 * t2_study().categories.percent_of(Category::kCpu));
  EXPECT_GT(t3_study().categories.percent_of(Category::kGpu),
            5.0 * t3_study().categories.percent_of(Category::kCpu));
}

// ---- Figure 3: software root loci ------------------------------------

TEST(CalibrationFig3, GpuDriverLociDominate) {
  ASSERT_TRUE(t3_study().software_loci.has_value());
  EXPECT_NEAR(t3_study().software_loci->gpu_driver_percent, 43.0, 6.0);
}

TEST(CalibrationFig3, UnknownLociAroundTwentyPercent) {
  ASSERT_TRUE(t3_study().software_loci.has_value());
  EXPECT_NEAR(t3_study().software_loci->unknown_percent, 20.0, 5.0);
}

TEST(CalibrationFig3, VocabularyRichEnoughForTopSixteen) {
  ASSERT_TRUE(t3_study().software_loci.has_value());
  EXPECT_GE(t3_study().software_loci->distinct_loci, 16u);
  EXPECT_EQ(t3_study().software_loci->top.size(), 16u);
}

// ---- Figure 4: per-node failure counts --------------------------------

TEST(CalibrationFig4, Tsubame2MostNodesFailOnce) {
  EXPECT_NEAR(t2_study().node_counts.percent_single_failure, 60.0, 8.0);
}

TEST(CalibrationFig4, Tsubame3MostNodesFailMoreThanOnce) {
  EXPECT_GT(t3_study().node_counts.percent_multi_failure, 50.0);
  EXPECT_NEAR(t3_study().node_counts.percent_single_failure, 40.0, 9.0);
}

TEST(CalibrationFig4, RepeatFailuresAreHardwareDominatedOnTsubame2Only) {
  // Paper: 352 HW vs 1 SW on Tsubame-2; 104 HW vs 95 SW on Tsubame-3.
  const auto& t2 = t2_study().node_counts;
  EXPECT_GT(t2.repeat_node_hardware_failures, 10 * t2.repeat_node_software_failures);
  const auto& t3 = t3_study().node_counts;
  EXPECT_LT(t3.repeat_node_hardware_failures, 3 * t3.repeat_node_software_failures);
  EXPECT_GT(t3.repeat_node_software_failures, 50u);
}

// ---- Figure 5: GPU slot distribution ----------------------------------

TEST(CalibrationFig5, Tsubame2MiddleSlotHottest) {
  ASSERT_TRUE(t2_study().gpu_slots.has_value());
  const auto& slots = t2_study().gpu_slots->slots;
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_GT(slots[1].count, slots[0].count);
  EXPECT_GT(slots[1].count, slots[2].count);
  // ~20% more than the average of GPU 0 / GPU 2.
  const double others = static_cast<double>(slots[0].count + slots[2].count) / 2.0;
  EXPECT_NEAR(static_cast<double>(slots[1].count) / others, 1.2, 0.15);
}

TEST(CalibrationFig5, Tsubame3OuterSlotsHottest) {
  ASSERT_TRUE(t3_study().gpu_slots.has_value());
  const auto& slots = t3_study().gpu_slots->slots;
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_GT(slots[0].count, slots[1].count);
  EXPECT_GT(slots[0].count, slots[2].count);
  EXPECT_GT(slots[3].count, slots[1].count);
  EXPECT_GT(slots[3].count, slots[2].count);
}

TEST(CalibrationFig5, NonUniformityDetectedOnTsubame3) {
  // With only 81 attributed failures the chi-square has limited power, but
  // the calibrated imbalance (1.7 vs 0.8) should still push p below 0.2.
  ASSERT_TRUE(t3_study().gpu_slots.has_value());
  EXPECT_LT(t3_study().gpu_slots->uniformity_p_value, 0.2);
}

// ---- Table III: multi-GPU involvement ----------------------------------

TEST(CalibrationTab3, Tsubame2RowExact) {
  ASSERT_TRUE(t2_study().multi_gpu.has_value());
  const auto& mg = *t2_study().multi_gpu;
  EXPECT_EQ(mg.attributed_failures, 368u);
  EXPECT_EQ(mg.count_with(1), 112u);
  EXPECT_EQ(mg.count_with(2), 128u);
  EXPECT_EQ(mg.count_with(3), 128u);
  EXPECT_NEAR(mg.percent_multi, 69.56, 0.1);
}

TEST(CalibrationTab3, Tsubame3RowExact) {
  ASSERT_TRUE(t3_study().multi_gpu.has_value());
  const auto& mg = *t3_study().multi_gpu;
  EXPECT_EQ(mg.attributed_failures, 81u);
  EXPECT_EQ(mg.count_with(1), 75u);
  EXPECT_EQ(mg.count_with(2), 4u);
  EXPECT_EQ(mg.count_with(3), 2u);
  EXPECT_EQ(mg.count_with(4), 0u);
  EXPECT_LT(mg.percent_multi, 8.0);
}

// ---- Figure 6 / RQ4: time between failures ------------------------------

TEST(CalibrationFig6, MtbfMatchesPaper) {
  ASSERT_TRUE(t2_study().tbf.has_value());
  EXPECT_NEAR(t2_study().tbf->exposure_mtbf_hours, 15.3, 0.5);
  ASSERT_TRUE(t3_study().tbf.has_value());
  EXPECT_GT(t3_study().tbf->exposure_mtbf_hours, 70.0);
  EXPECT_NEAR(t3_study().tbf->exposure_mtbf_hours, 72.3, 1.0);
}

TEST(CalibrationFig6, SeventyFifthPercentiles) {
  // Paper: 75% of T2 failures within 20 h of each other; T3 within 93 h.
  EXPECT_NEAR(t2_study().tbf->p75_hours, 20.0, 4.0);
  EXPECT_NEAR(t3_study().tbf->p75_hours, 93.0, 18.0);
}

TEST(CalibrationFig6, MtbfImprovedAboutFourFold) {
  const double ratio =
      t3_study().tbf->exposure_mtbf_hours / t2_study().tbf->exposure_mtbf_hours;
  EXPECT_NEAR(ratio, 4.7, 0.8);  // "more than 4x improvement"
}

TEST(CalibrationRq4, GpuMtbfImprovedFarMoreThanComponentShrinkage) {
  auto t2_log = sim::generate_log(sim::tsubame2_model(), 777).value();
  const data::LogIndex t2_index(t2_log);
  auto t3_log = sim::generate_log(sim::tsubame3_model(), 777).value();
  const data::LogIndex t3_index(t3_log);
  const double t2_gpu = analysis::analyze_tbf_category(t2_index, Category::kGpu)
                            .value().exposure_mtbf_hours;
  const double t3_gpu = analysis::analyze_tbf_category(t3_index, Category::kGpu)
                            .value().exposure_mtbf_hours;
  // Paper: 21.94 h -> 226.48 h (~10x) while GPU count only halved.
  EXPECT_GT(t3_gpu / t2_gpu, 5.0);
  const double gpu_count_ratio = 4224.0 / 2160.0;  // ~2x
  EXPECT_GT(t3_gpu / t2_gpu, 2.5 * gpu_count_ratio);
}

TEST(CalibrationRq4, CpuMtbfAlsoImproved) {
  auto t2_log = sim::generate_log(sim::tsubame2_model(), 778).value();
  const data::LogIndex t2_index(t2_log);
  auto t3_log = sim::generate_log(sim::tsubame3_model(), 778).value();
  const data::LogIndex t3_index(t3_log);
  const double t2_cpu = analysis::analyze_tbf_category(t2_index, Category::kCpu)
                            .value().exposure_mtbf_hours;
  const double t3_cpu = analysis::analyze_tbf_category(t3_index, Category::kCpu)
                            .value().exposure_mtbf_hours;
  EXPECT_GT(t3_cpu, 2.0 * t2_cpu);  // paper: ~3x
}

// ---- Figure 7: TBF by failure type --------------------------------------

TEST(CalibrationFig7, GpuHasLowestMedianTbfAmongMajors) {
  const auto& rows = t2_study().tbf_by_category;
  ASSERT_FALSE(rows.empty());
  // Rows are sorted ascending by MTBF; GPU (the most frequent) leads.
  EXPECT_EQ(rows.front().category, Category::kGpu);
}

TEST(CalibrationFig7, MemoryAndCpuHaveHigherMedianTbfThanGpu) {
  const auto find = [](const std::vector<analysis::CategoryTbf>& rows, Category c) {
    for (const auto& row : rows)
      if (row.category == c) return row.box.median;
    return -1.0;
  };
  for (const auto* study : {&t2_study(), &t3_study()}) {
    const double gpu = find(study->tbf_by_category, Category::kGpu);
    const double cpu = find(study->tbf_by_category, Category::kCpu);
    const double memory = find(study->tbf_by_category, Category::kMemory);
    ASSERT_GT(gpu, 0.0);
    if (cpu > 0.0) {
      EXPECT_GT(cpu, 5.0 * gpu);
    }
    if (memory > 0.0) {
      EXPECT_GT(memory, 5.0 * gpu);
    }
  }
}

// ---- Figure 8: temporal clustering of multi-GPU failures ----------------

TEST(CalibrationFig8, MultiGpuFailuresAreClusteredInTime) {
  ASSERT_TRUE(t2_study().multi_gpu_clustering.has_value());
  EXPECT_GT(t2_study().multi_gpu_clustering->cv, 1.2);
  EXPECT_TRUE(t2_study().multi_gpu_clustering->clustered);
}

TEST(CalibrationFig8, Tsubame3SparseStreamStillClustered) {
  ASSERT_TRUE(t3_study().multi_gpu_clustering.has_value());
  EXPECT_GT(t3_study().multi_gpu_clustering->follow_probability,
            t3_study().multi_gpu_clustering->poisson_follow_probability);
}

// ---- Figure 9: time to recovery -----------------------------------------

TEST(CalibrationFig9, MttrNearFiftyFiveOnBothSystems) {
  // Single-realization MTTR is noisy under lognormal tails; average a
  // multi-replicate sweep instead of a single seed.
  for (const auto* model : {&sim::tsubame2_model(), &sim::tsubame3_model()}) {
    sim::SweepOptions options;
    options.base_seed = 100;
    options.replicates = 6;
    options.jobs = 0;  // aggregates are jobs-invariant
    const auto sweep = sim::run_sweep(*model, options).value();
    EXPECT_NEAR(sweep.variants[0].mean_of("mttr_hours"), 55.0, 7.0) << model->spec.name;
  }
}

TEST(CalibrationFig9, MttrGenerationsComparableUnlikeMtbf) {
  const double t2 = t2_study().ttr.mttr_hours;
  const double t3 = t3_study().ttr.mttr_hours;
  EXPECT_LT(std::max(t2, t3) / std::min(t2, t3), 1.45);  // "roughly the same"
}

// ---- Figure 10: TTR by failure type --------------------------------------

TEST(CalibrationFig10, LongTailCategories) {
  // T2 SSD repairs reach ~290 h; T3 power-board ~230 h.
  const auto max_ttr = [](const analysis::StudyReport& study, Category c) {
    for (const auto& row : study.ttr_by_category)
      if (row.category == c) return row.box.whisker_high;
    return -1.0;
  };
  auto t2_log = sim::generate_log(sim::tsubame2_model(), 20210607).value();
  double ssd_max = 0.0;
  for (const auto& r : t2_log.by_category(Category::kSsd))
    ssd_max = std::max(ssd_max, r.ttr_hours);
  EXPECT_GT(ssd_max, 120.0);
  EXPECT_LE(ssd_max, 290.0 + 1e-9);  // the calibrated cap

  auto t3_log = sim::generate_log(sim::tsubame3_model(), 20210607).value();
  double pb_max = 0.0;
  for (const auto& r : t3_log.by_category(Category::kPowerBoard))
    pb_max = std::max(pb_max, r.ttr_hours);
  EXPECT_LE(pb_max, 230.0 + 1e-9);
  (void)max_ttr;
}

TEST(CalibrationFig10, HardwareSpreadExceedsSoftwareSpread) {
  // Pooled IQR of hardware TTR > pooled IQR of software TTR (both systems).
  for (const auto* model : {&sim::tsubame2_model(), &sim::tsubame3_model()}) {
    auto log = sim::generate_log(*model, 555).value();
    const data::LogIndex index(log);
    auto hw = analysis::analyze_ttr_class(index, FailureClass::kHardware).value();
    auto sw = analysis::analyze_ttr_class(index, FailureClass::kSoftware).value();
    EXPECT_GT(hw.summary.p75 - hw.summary.p25, sw.summary.p75 - sw.summary.p25)
        << model->spec.name;
  }
}

TEST(CalibrationFig10, InfrequentCategoriesCanHaveHighRecoveryCost) {
  // The paper's point: power board is ~1% of failures yet repairs are the
  // longest.  Only 3-4 such events exist per realization; average the
  // category MTTR across sweep replicates before comparing against the
  // system MTTR.
  sim::SweepOptions options;
  options.base_seed = 600;
  options.replicates = 8;
  options.jobs = 0;
  const auto sweep = sim::run_sweep(sim::tsubame3_model(), options).value();
  const auto& variant = sweep.variants[0];
  ASSERT_NE(variant.find("mttr_power_board_hours"), nullptr);
  EXPECT_LT(variant.mean_of("share_power_board_percent"), 2.0);
  EXPECT_GT(variant.mean_of("mttr_power_board_hours"), variant.mean_of("mttr_hours"));
}

// ---- Figures 11-12: seasonality ------------------------------------------

TEST(CalibrationFig11, Tsubame2SecondHalfRepairsSlower) {
  double h1 = 0, h2 = 0;
  const int seeds = 6;
  for (std::uint64_t seed = 300; seed < 300 + seeds; ++seed) {
    auto log = sim::generate_log(sim::tsubame2_model(), seed).value();
    const data::LogIndex index(log);
    auto seasonal = analysis::analyze_seasonal(index).value();
    h1 += seasonal.first_half_median_ttr / seeds;
    h2 += seasonal.second_half_median_ttr / seeds;
  }
  EXPECT_GT(h2, h1 * 1.15);
}

TEST(CalibrationFig11, Tsubame3HasNoSeasonalTtrTrend) {
  double h1 = 0, h2 = 0;
  const int seeds = 6;
  for (std::uint64_t seed = 300; seed < 300 + seeds; ++seed) {
    auto log = sim::generate_log(sim::tsubame3_model(), seed).value();
    const data::LogIndex index(log);
    auto seasonal = analysis::analyze_seasonal(index).value();
    h1 += seasonal.first_half_median_ttr / seeds;
    h2 += seasonal.second_half_median_ttr / seeds;
  }
  EXPECT_NEAR(h2 / h1, 1.0, 0.2);
}

TEST(CalibrationFig12, EveryMonthSeesFailures) {
  for (const auto* study : {&t2_study(), &t3_study()}) {
    for (std::size_t count : study->seasonal.failure_counts) EXPECT_GT(count, 0u);
  }
}

TEST(CalibrationFig12, DensityAndTtrUncorrelated) {
  // The paper: months with more failures do not repair slower.  Averaged
  // over seeds, |rho| stays small.
  double rho_sum = 0.0;
  const int seeds = 8;
  for (std::uint64_t seed = 400; seed < 400 + seeds; ++seed) {
    auto log = sim::generate_log(sim::tsubame3_model(), seed).value();
    const data::LogIndex index(log);
    auto seasonal = analysis::analyze_seasonal(index).value();
    ASSERT_TRUE(seasonal.spearman_density_ttr.has_value());
    rho_sum += *seasonal.spearman_density_ttr / seeds;
  }
  EXPECT_LT(std::abs(rho_sum), 0.35);
}

// ---- RQ4: performance-error-proportionality ------------------------------

TEST(CalibrationPerfProp, ComputeAndMtbfRatiosMatchPaperStory) {
  auto t2_log = sim::generate_log(sim::tsubame2_model(), 888).value();
  const data::LogIndex t2_index(t2_log);
  auto t3_log = sim::generate_log(sim::tsubame3_model(), 888).value();
  const data::LogIndex t3_index(t3_log);
  auto cmp = analysis::compare_generations(t2_index, t3_index).value();
  EXPECT_NEAR(cmp.compute_ratio, 12.1 / 2.3, 0.01);     // ~5.3x Rpeak
  EXPECT_NEAR(cmp.mtbf_ratio, 4.7, 0.5);                // "more than 4x"
  EXPECT_GT(cmp.metric_ratio, 20.0);                    // FLOP x MTBF compounding
  EXPECT_NEAR(cmp.component_ratio, 7040.0 / 3240.0, 0.01);
  EXPECT_TRUE(cmp.reliability_outpaced_shrinkage);
}

}  // namespace
}  // namespace tsufail
