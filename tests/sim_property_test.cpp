// Property sweep over generator seeds: the structural calibration
// invariants must hold for EVERY seed, not just the bench seed.  These
// complement sim_calibration_test (which checks the statistical targets
// on fixed seeds with tolerances).
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "analysis/category_breakdown.h"
#include "analysis/multi_gpu.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::sim {
namespace {

class GeneratorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedSweep, ExactTotalsEverySeed) {
  EXPECT_EQ(generate_log(tsubame2_model(), GetParam()).value().size(), 897u);
  EXPECT_EQ(generate_log(tsubame3_model(), GetParam()).value().size(), 338u);
}

TEST_P(GeneratorSeedSweep, HeadlineSharesAreSeedInvariant) {
  // Largest-remainder apportionment fixes per-category counts exactly,
  // independent of the seed.
  const auto t2_log = generate_log(tsubame2_model(), GetParam()).value();
  const data::LogIndex t2(t2_log);
  EXPECT_EQ(t2.count(data::Category::kGpu), 398u);
  EXPECT_EQ(t2.count(data::Category::kCpu), 16u);
  const auto t3_log = generate_log(tsubame3_model(), GetParam()).value();
  const data::LogIndex t3(t3_log);
  EXPECT_EQ(t3.count(data::Category::kSoftware), 171u);
  EXPECT_EQ(t3.count(data::Category::kGpu), 94u);
}

TEST_P(GeneratorSeedSweep, TableThreeRowsAreSeedInvariant) {
  const auto t2 = generate_log(tsubame2_model(), GetParam()).value();
  const data::LogIndex t2_index(t2);
  auto mg2 = analysis::analyze_multi_gpu(t2_index).value();
  EXPECT_EQ(mg2.count_with(1), 112u);
  EXPECT_EQ(mg2.count_with(2), 128u);
  EXPECT_EQ(mg2.count_with(3), 128u);
  const auto t3 = generate_log(tsubame3_model(), GetParam()).value();
  const data::LogIndex t3_index(t3);
  auto mg3 = analysis::analyze_multi_gpu(t3_index).value();
  EXPECT_EQ(mg3.count_with(1), 75u);
  EXPECT_EQ(mg3.count_with(2), 4u);
  EXPECT_EQ(mg3.count_with(3), 2u);
  EXPECT_EQ(mg3.count_with(4), 0u);
}

TEST_P(GeneratorSeedSweep, StructuralRecordInvariants) {
  for (const auto* model : {&tsubame2_model(), &tsubame3_model()}) {
    const auto log = generate_log(*model, GetParam()).value();
    for (const auto& record : log.records()) {
      EXPECT_GE(record.node, 0);
      EXPECT_LT(record.node, log.spec().node_count);
      EXPECT_GE(record.ttr_hours, 0.0);
      // Uncapped lognormal tails can reach ~1000 h on 897 draws; anything
      // beyond this bound would indicate a parameterization bug.
      EXPECT_LE(record.ttr_hours, 5000.0);
      EXPECT_GE(record.time, log.spec().log_start);
      std::set<int> unique(record.gpu_slots.begin(), record.gpu_slots.end());
      EXPECT_EQ(unique.size(), record.gpu_slots.size());
      for (int slot : record.gpu_slots) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, log.spec().gpus_per_node);
      }
      if (!record.gpu_slots.empty()) {
        EXPECT_EQ(record.category, data::Category::kGpu);
      }
      if (!record.root_locus.empty()) {
        EXPECT_EQ(record.failure_class(), data::FailureClass::kSoftware);
      }
    }
  }
}

TEST_P(GeneratorSeedSweep, EveryMonthCovered) {
  const auto log = generate_log(tsubame2_model(), GetParam()).value();
  std::array<bool, 12> seen{};
  for (const auto& record : log.records())
    seen[static_cast<std::size_t>(record.time.month() - 1)] = true;
  for (bool month_seen : seen) EXPECT_TRUE(month_seen);
}

TEST_P(GeneratorSeedSweep, MtbfWithinConfidenceBand) {
  // The exposure MTBF is fixed by construction (count is exact), so it
  // must equal window/count for every seed.
  const auto log = generate_log(tsubame3_model(), GetParam()).value();
  const double expected = log.spec().window_hours() / 338.0;
  EXPECT_NEAR(log.spec().window_hours() / static_cast<double>(log.size()), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep, ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace tsufail::sim
