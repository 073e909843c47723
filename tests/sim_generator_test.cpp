// Tests for the fleetsim generator: determinism, structural invariants,
// and the knob (ablation) switches.
#include <gtest/gtest.h>

#include <set>

#include "data/log_index.h"
#include "data/log_io.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::sim {
namespace {

TEST(Generator, ExactTotalFailureCount) {
  EXPECT_EQ(generate_log(tsubame2_model(), 1).value().size(), 897u);
  EXPECT_EQ(generate_log(tsubame3_model(), 1).value().size(), 338u);
}

TEST(Generator, DeterministicForSameSeed) {
  const auto a = generate_log(tsubame2_model(), 42).value();
  const auto b = generate_log(tsubame2_model(), 42).value();
  EXPECT_EQ(data::write_log_csv(a), data::write_log_csv(b));
}

TEST(Generator, DifferentSeedsProduceDifferentLogs) {
  const auto a = generate_log(tsubame2_model(), 1).value();
  const auto b = generate_log(tsubame2_model(), 2).value();
  EXPECT_NE(data::write_log_csv(a), data::write_log_csv(b));
}

TEST(Generator, AllRecordsValidateAgainstSpec) {
  // FailureLog::create validates internally; a successful build plus a
  // sweep over structural invariants is the contract here.
  const auto log = generate_log(tsubame3_model(), 5).value();
  for (const auto& record : log.records()) {
    EXPECT_TRUE(data::valid_for(record.category, log.machine()));
    EXPECT_GE(record.node, 0);
    EXPECT_LT(record.node, log.spec().node_count);
    EXPECT_GE(record.ttr_hours, 0.0);
    for (int slot : record.gpu_slots) {
      EXPECT_GE(slot, 0);
      EXPECT_LT(slot, log.spec().gpus_per_node);
    }
  }
}

TEST(Generator, CategoryCountsFollowShares) {
  const auto log = generate_log(tsubame2_model(), 3).value();
  const data::LogIndex index(log);
  // Largest-remainder apportionment: GPU share 44.37% of 897 = 398.0.
  EXPECT_EQ(index.count(data::Category::kGpu), 398u);
  EXPECT_EQ(index.count(data::Category::kCpu), 16u);  // 1.78% of 897 = 15.97
}

TEST(Generator, SlotListsOnlyOnGpuHardware) {
  const auto log = generate_log(tsubame3_model(), 7).value();
  for (const auto& record : log.records()) {
    if (!record.gpu_slots.empty()) {
      EXPECT_EQ(record.category, data::Category::kGpu);
    }
  }
}

TEST(Generator, SlotListsHaveNoDuplicates) {
  const auto log = generate_log(tsubame2_model(), 9).value();
  for (const auto& record : log.records()) {
    std::set<int> unique(record.gpu_slots.begin(), record.gpu_slots.end());
    EXPECT_EQ(unique.size(), record.gpu_slots.size());
  }
}

TEST(Generator, RootLociOnlyOnSoftwareClass) {
  const auto log = generate_log(tsubame3_model(), 11).value();
  std::size_t with_locus = 0;
  for (const auto& record : log.records()) {
    if (!record.root_locus.empty()) {
      EXPECT_EQ(record.failure_class(), data::FailureClass::kSoftware);
      ++with_locus;
    }
  }
  EXPECT_GT(with_locus, 100u);  // ~171 software failures all carry loci
}

TEST(Generator, Tsubame2HasNoRootLoci) {
  // The Tsubame-2 model ships no locus vocabulary (the paper breaks down
  // loci only for Tsubame-3).
  const auto log = generate_log(tsubame2_model(), 13).value();
  for (const auto& record : log.records()) EXPECT_TRUE(record.root_locus.empty());
}

TEST(Generator, AttributionFractionRoughlyCalibrated) {
  const auto log = generate_log(tsubame2_model(), 15).value();
  std::size_t gpu = 0, attributed = 0;
  for (const auto& record : log.records()) {
    if (record.category != data::Category::kGpu) continue;
    ++gpu;
    attributed += !record.gpu_slots.empty();
  }
  EXPECT_EQ(gpu, 398u);
  EXPECT_NEAR(static_cast<double>(attributed), 368.0, 1.0);  // Table III total
}

TEST(Generator, InvolvementCountsMatchTableThreeExactly) {
  // Largest-remainder apportionment makes the Table III split
  // deterministic given the calibrated weights.
  const auto log = generate_log(tsubame2_model(), 17).value();
  std::array<std::size_t, 4> by_involvement{};
  for (const auto& record : log.records()) {
    if (!record.gpu_slots.empty()) ++by_involvement[record.gpu_slots.size()];
  }
  EXPECT_EQ(by_involvement[1], 112u);
  EXPECT_EQ(by_involvement[2], 128u);
  EXPECT_EQ(by_involvement[3], 128u);
}

TEST(Generator, NoQuadGpuFailuresOnTsubame3) {
  const auto log = generate_log(tsubame3_model(), 19).value();
  for (const auto& record : log.records()) EXPECT_LT(record.gpu_slots.size(), 4u);
}

TEST(Generator, InvalidModelRejected) {
  MachineModel m = tsubame2_model();
  m.total_failures = 0;
  EXPECT_FALSE(generate_log(m, 1).ok());
}

TEST(GeneratorKnobs, DisablingHeterogeneityFlattensNodes) {
  MachineModel hetero = tsubame2_model();
  MachineModel uniform = tsubame2_model();
  uniform.knobs.enable_node_heterogeneity = false;

  const auto max_node_count = [](const data::FailureLog& log) {
    const data::LogIndex index(log);
    std::size_t max_count = 0;
    for (const auto& group : index.nodes())
      max_count = std::max<std::size_t>(max_count, group.count);
    return max_count;
  };
  const auto hetero_max = max_node_count(generate_log(hetero, 21).value());
  const auto uniform_max = max_node_count(generate_log(uniform, 21).value());
  EXPECT_GT(hetero_max, uniform_max * 2);
}

TEST(GeneratorKnobs, DisablingSlotWeightsEqualizesSlots) {
  MachineModel uniform = tsubame3_model();
  uniform.knobs.enable_slot_weights = false;
  const auto log = generate_log(uniform, 23).value();
  std::array<std::size_t, 4> counts{};
  std::size_t total = 0;
  for (const auto& record : log.records()) {
    for (int slot : record.gpu_slots) {
      ++counts[static_cast<std::size_t>(slot)];
      ++total;
    }
  }
  for (std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), static_cast<double>(total) / 4.0,
                3.0 * std::sqrt(static_cast<double>(total)));
  }
}

TEST(GeneratorKnobs, DisablingSeasonalFlattensTtrByMonth) {
  MachineModel seasonal = tsubame2_model();
  MachineModel flat = tsubame2_model();
  flat.knobs.enable_seasonal = false;

  const auto half_year_ratio = [](const data::FailureLog& log) {
    double h1 = 0, h2 = 0;
    std::size_t n1 = 0, n2 = 0;
    for (const auto& record : log.records()) {
      if (record.time.month() <= 6) {
        h1 += record.ttr_hours;
        ++n1;
      } else {
        h2 += record.ttr_hours;
        ++n2;
      }
    }
    return (h2 / static_cast<double>(n2)) / (h1 / static_cast<double>(n1));
  };
  // Average over seeds to tame lognormal-tail noise.
  double seasonal_ratio = 0, flat_ratio = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    seasonal_ratio += half_year_ratio(generate_log(seasonal, seed).value()) / 5.0;
    flat_ratio += half_year_ratio(generate_log(flat, seed).value()) / 5.0;
  }
  EXPECT_GT(seasonal_ratio, 1.2);  // Jul-Dec repairs 1.25/0.85 ~ 1.47x slower
  EXPECT_NEAR(flat_ratio, 1.0, 0.25);
}

TEST(GeneratorKnobs, DisablingBurstsReducesGapDispersion) {
  MachineModel bursty = tsubame3_model();
  MachineModel smooth = tsubame3_model();
  smooth.knobs.enable_bursts = false;

  const auto software_gap_cv = [](const data::FailureLog& log) {
    std::vector<double> hours;
    for (const auto& record : log.records()) {
      if (record.category == data::Category::kSoftware)
        hours.push_back(hours_between(log.spec().log_start, record.time));
    }
    double mean = 0;
    std::vector<double> gaps;
    for (std::size_t i = 1; i < hours.size(); ++i) gaps.push_back(hours[i] - hours[i - 1]);
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size() - 1);
    return std::sqrt(var) / mean;
  };
  double bursty_cv = 0, smooth_cv = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    bursty_cv += software_gap_cv(generate_log(bursty, seed).value()) / 5.0;
    smooth_cv += software_gap_cv(generate_log(smooth, seed).value()) / 5.0;
  }
  EXPECT_GT(bursty_cv, smooth_cv * 1.1);
}

}  // namespace
}  // namespace tsufail::sim
