// Tests for sim::montecarlo — the sharded Monte Carlo sweep engine.
// The load-bearing claims: replicate seeding is a pinned pure function,
// sweep output is bit-identical at every jobs count, variants share the
// per-replicate seed set (common random numbers), and the aggregates are
// the plain mean/stddev of the per-replicate metrics.
#include "sim/montecarlo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/tsubame_models.h"
#include "util/rng.h"

namespace tsufail::sim {
namespace {

SweepOptions small_options(std::size_t jobs = 1) {
  SweepOptions options;
  options.base_seed = 42;
  options.replicates = 4;
  options.jobs = jobs;
  options.bootstrap_replicates = 200;
  return options;
}

/// Structural equality with exact double comparison: the determinism
/// contract promises bit-identical results, not merely close ones.
void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.variants.size(), b.variants.size());
  for (std::size_t v = 0; v < a.variants.size(); ++v) {
    const auto& va = a.variants[v];
    const auto& vb = b.variants[v];
    EXPECT_EQ(va.label, vb.label);
    ASSERT_EQ(va.replicates.size(), vb.replicates.size());
    for (std::size_t r = 0; r < va.replicates.size(); ++r) {
      const auto& ra = va.replicates[r];
      const auto& rb = vb.replicates[r];
      EXPECT_EQ(ra.replicate, rb.replicate);
      EXPECT_EQ(ra.seed, rb.seed);
      EXPECT_EQ(ra.failures, rb.failures);
      ASSERT_EQ(ra.metrics.size(), rb.metrics.size());
      for (std::size_t m = 0; m < ra.metrics.size(); ++m) {
        EXPECT_EQ(ra.metrics[m].name, rb.metrics[m].name);
        EXPECT_EQ(ra.metrics[m].value, rb.metrics[m].value)
            << va.label << " r" << r << " " << ra.metrics[m].name;
      }
    }
    ASSERT_EQ(va.aggregates.size(), vb.aggregates.size());
    for (std::size_t m = 0; m < va.aggregates.size(); ++m) {
      const auto& ma = va.aggregates[m];
      const auto& mb = vb.aggregates[m];
      EXPECT_EQ(ma.name, mb.name);
      EXPECT_EQ(ma.n, mb.n);
      EXPECT_EQ(ma.mean, mb.mean) << ma.name;
      EXPECT_EQ(ma.stddev, mb.stddev) << ma.name;
      EXPECT_EQ(ma.mean_ci.low, mb.mean_ci.low) << ma.name;
      EXPECT_EQ(ma.mean_ci.high, mb.mean_ci.high) << ma.name;
    }
  }
}

// ---- replicate_seed ----------------------------------------------------

TEST(ReplicateSeed, PureAndPinned) {
  // Pinned values: changing the fork scheme silently would invalidate
  // every recorded sweep, so the function is part of the stable API.
  EXPECT_EQ(replicate_seed(1, 0), replicate_seed(1, 0));
  const std::uint64_t first = replicate_seed(20210607, 0);
  EXPECT_EQ(first, replicate_seed(20210607, 0));
  EXPECT_NE(first, replicate_seed(20210607, 1));
  EXPECT_NE(first, replicate_seed(20210608, 0));
}

TEST(ReplicateSeed, IsForkSeed) {
  // replicate_seed IS util's fork_seed — one derivation scheme for the
  // whole library, so replicate streams and ops-layer stage streams can
  // never drift apart.  Pinned as an identity over a seed grid.
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
                                   std::uint64_t{0x75E5FA11ULL}, ~std::uint64_t{0}}) {
    for (std::uint64_t r = 0; r < 16; ++r) {
      EXPECT_EQ(replicate_seed(base, r), fork_seed(base, r)) << base << " r" << r;
    }
  }
}

TEST(ReplicateSeed, DistinctAcrossIndicesAndNeverBase) {
  const std::uint64_t base = 7;
  std::set<std::uint64_t> seen;
  for (std::uint64_t r = 0; r < 512; ++r) {
    const std::uint64_t seed = replicate_seed(base, r);
    EXPECT_NE(seed, base);
    EXPECT_TRUE(seen.insert(seed).second) << "collision at replicate " << r;
  }
}

// ---- determinism across jobs -------------------------------------------

TEST(RunSweep, BitIdenticalAtAnyJobsCount) {
  const std::vector<SweepVariant> variants = {
      {"baseline", tsubame3_model(), {}},
      {"t2", tsubame2_model(), {}},
  };
  const auto serial = run_sweep(variants, small_options(1));
  ASSERT_TRUE(serial.ok()) << serial.error().message();
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const auto threaded = run_sweep(variants, small_options(jobs));
    ASSERT_TRUE(threaded.ok()) << threaded.error().message();
    expect_identical(serial.value(), threaded.value());
  }
}

TEST(RunSweep, SeedsFollowTheReplicateSeedContract) {
  const auto sweep = run_sweep(tsubame3_model(), small_options()).value();
  ASSERT_EQ(sweep.variants.size(), 1u);
  const auto& replicates = sweep.variants[0].replicates;
  ASSERT_EQ(replicates.size(), 4u);
  for (std::size_t r = 0; r < replicates.size(); ++r) {
    EXPECT_EQ(replicates[r].replicate, r);
    EXPECT_EQ(replicates[r].seed, replicate_seed(42, r));
  }
}

TEST(RunSweep, VariantsShareCommonRandomNumbers) {
  // Every variant replays the same seed set, so identical models produce
  // identical per-replicate results under different labels.
  const std::vector<SweepVariant> variants = {
      {"a", tsubame3_model(), {}},
      {"b", tsubame3_model(), {}},
  };
  const auto sweep = run_sweep(variants, small_options(2)).value();
  const auto& a = sweep.variants[0];
  const auto& b = sweep.variants[1];
  ASSERT_EQ(a.replicates.size(), b.replicates.size());
  for (std::size_t r = 0; r < a.replicates.size(); ++r) {
    EXPECT_EQ(a.replicates[r].seed, b.replicates[r].seed);
    ASSERT_EQ(a.replicates[r].metrics.size(), b.replicates[r].metrics.size());
    for (std::size_t m = 0; m < a.replicates[r].metrics.size(); ++m)
      EXPECT_EQ(a.replicates[r].metrics[m].value, b.replicates[r].metrics[m].value);
  }
}

// ---- aggregates ---------------------------------------------------------

TEST(RunSweep, AggregateMeanAndStddevMatchManualComputation) {
  const auto sweep = run_sweep(tsubame2_model(), small_options(2)).value();
  const auto& variant = sweep.variants[0];
  for (const auto& aggregate : variant.aggregates) {
    std::vector<double> values;
    for (const auto& replicate : variant.replicates)
      for (const auto& metric : replicate.metrics)
        if (metric.name == aggregate.name) values.push_back(metric.value);
    ASSERT_EQ(aggregate.n, values.size()) << aggregate.name;
    double sum = 0.0;
    for (double v : values) sum += v;
    const double mean = sum / static_cast<double>(values.size());
    EXPECT_NEAR(aggregate.mean, mean, 1e-9 * std::max(1.0, std::abs(mean))) << aggregate.name;
    if (values.size() > 1) {
      double ss = 0.0;
      for (double v : values) ss += (v - mean) * (v - mean);
      const double stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
      EXPECT_NEAR(aggregate.stddev, stddev, 1e-9 * std::max(1.0, stddev)) << aggregate.name;
    }
    // Percentile bootstrap of the mean stays inside the sample range.
    const auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
    EXPECT_GE(aggregate.mean_ci.low, *min_it - 1e-12) << aggregate.name;
    EXPECT_LE(aggregate.mean_ci.high, *max_it + 1e-12) << aggregate.name;
    EXPECT_LE(aggregate.mean_ci.low, aggregate.mean_ci.high) << aggregate.name;
  }
}

TEST(RunSweep, FindAndMeanOfLookups) {
  const auto sweep = run_sweep(tsubame3_model(), small_options()).value();
  const auto& variant = sweep.variants[0];
  ASSERT_NE(variant.find("mtbf_hours"), nullptr);
  EXPECT_EQ(variant.find("mtbf_hours")->mean, variant.mean_of("mtbf_hours"));
  EXPECT_EQ(variant.find("no_such_metric"), nullptr);
  EXPECT_EQ(variant.mean_of("no_such_metric"), 0.0);
  EXPECT_EQ(variant.mean_of("no_such_metric", 1.5), 1.5);
  ASSERT_NE(sweep.find(variant.label), nullptr);
  EXPECT_EQ(sweep.find("no-such-variant"), nullptr);
}

TEST(RunSweep, EmitsTheHeadlineMetrics) {
  const auto sweep = run_sweep(tsubame3_model(), small_options()).value();
  const auto& variant = sweep.variants[0];
  for (const char* name :
       {"failures", "mtbf_hours", "mttr_hours", "gpu_share_percent", "software_share_percent",
        "percent_multi_failure_nodes", "multi_gpu_percent", "mtbf_gpu_hours"}) {
    EXPECT_NE(variant.find(name), nullptr) << name;
  }
  EXPECT_EQ(variant.mean_of("failures"),
            static_cast<double>(tsubame3_model().total_failures));
}

// ---- selected aggregates ------------------------------------------------

TEST(RunSweep, SelectedMetricsMatchTheFullAggregation) {
  // Each metric keeps its own bootstrap seed, so aggregating two names
  // reproduces those two aggregates of the all-metrics sweep exactly, on
  // every variant.
  const std::vector<SweepVariant> variants = {
      {"baseline", tsubame3_model()},
      {"t2", tsubame2_model()},
  };
  const auto all = run_sweep(variants, small_options(2)).value();
  auto options = small_options(3);
  options.metrics = {"mttr_hours", "h2_h1_ttr_ratio"};
  const auto selected = run_sweep(variants, options).value();
  ASSERT_EQ(selected.variants.size(), 2u);
  for (std::size_t v = 0; v < 2; ++v) {
    const auto& sweep = selected.variants[v];
    ASSERT_EQ(sweep.aggregates.size(), 2u) << sweep.label;
    for (const auto& aggregate : sweep.aggregates) {
      const MetricAggregate* full = all.variants[v].find(aggregate.name);
      ASSERT_NE(full, nullptr) << aggregate.name;
      EXPECT_EQ(aggregate.n, full->n) << aggregate.name;
      EXPECT_EQ(aggregate.mean, full->mean) << aggregate.name;
      EXPECT_EQ(aggregate.stddev, full->stddev) << aggregate.name;
      EXPECT_EQ(aggregate.mean_ci.low, full->mean_ci.low) << aggregate.name;
      EXPECT_EQ(aggregate.mean_ci.high, full->mean_ci.high) << aggregate.name;
    }
    // First-appearance order, and every replicate keeps all its samples.
    EXPECT_EQ(sweep.aggregates[0].name, "mttr_hours");
    EXPECT_EQ(sweep.aggregates[1].name, "h2_h1_ttr_ratio");
    EXPECT_EQ(sweep.replicates[0].metrics.size(), all.variants[v].replicates[0].metrics.size());
  }
}

TEST(RunSweep, SelectedMetricThatNoReplicateProducedIsAbsent) {
  auto options = small_options();
  options.metrics = {"no_such_metric", "mtbf_hours"};
  const auto sweep = run_sweep(tsubame3_model(), options).value();
  const auto& variant = sweep.variants[0];
  ASSERT_EQ(variant.aggregates.size(), 1u);
  EXPECT_EQ(variant.aggregates[0].name, "mtbf_hours");
  EXPECT_EQ(variant.find("no_such_metric"), nullptr);
}

// ---- custom replicate stages --------------------------------------------

/// A deterministic toy stage: metrics derived only from the log and the
/// forked seed, so staged sweeps stay bit-identical at any jobs count.
ReplicateStage toy_stage() {
  return [](const data::FailureLog& log, std::uint64_t seed) {
    std::vector<MetricSample> samples;
    samples.push_back({"custom_failures", static_cast<double>(log.size())});
    samples.push_back({"custom_seed_low", static_cast<double>(seed & 0xFFFFu)});
    return Result<std::vector<MetricSample>>(std::move(samples));
  };
}

TEST(RunSweep, StageOverridesStudyPipeline) {
  auto options = small_options();
  options.stage = toy_stage();
  const auto sweep = run_sweep(tsubame3_model(), options).value();
  const auto& variant = sweep.variants[0];
  ASSERT_EQ(variant.replicates.size(), 4u);
  for (const auto& replicate : variant.replicates) {
    // Only the stage's metrics — no study pipeline.
    ASSERT_EQ(replicate.metrics.size(), 2u);
    EXPECT_EQ(replicate.metrics[0].name, "custom_failures");
    EXPECT_EQ(replicate.metrics[0].value, static_cast<double>(replicate.failures));
    // The stage receives the replicate's forked seed, not the base seed.
    EXPECT_EQ(replicate.metrics[1].value,
              static_cast<double>(replicate_seed(42, replicate.replicate) & 0xFFFFu));
  }
  EXPECT_NE(variant.find("custom_failures"), nullptr);
  EXPECT_EQ(variant.find("mtbf_hours"), nullptr);
}

TEST(RunSweep, PerVariantStageOverridesDefault) {
  // One staged arm and one study-path arm in the same sweep: the variant
  // override wins over the (empty) default, and the study arm keeps the
  // full metric set.
  std::vector<SweepVariant> variants = {
      {"staged", tsubame3_model(), {}},
      {"study", tsubame3_model(), {}},
  };
  variants[0].stage = toy_stage();
  const auto sweep = run_sweep(variants, small_options()).value();
  const auto* staged = sweep.find("staged");
  const auto* study = sweep.find("study");
  ASSERT_NE(staged, nullptr);
  ASSERT_NE(study, nullptr);
  EXPECT_NE(staged->find("custom_failures"), nullptr);
  EXPECT_EQ(staged->find("mtbf_hours"), nullptr);
  EXPECT_NE(study->find("mtbf_hours"), nullptr);
  EXPECT_EQ(study->find("custom_failures"), nullptr);
  // Common random numbers hold across the stage/study split: both arms
  // replay the same seeds, so the generated logs are the same size.
  for (std::size_t r = 0; r < staged->replicates.size(); ++r) {
    EXPECT_EQ(staged->replicates[r].seed, study->replicates[r].seed);
    EXPECT_EQ(staged->replicates[r].failures, study->replicates[r].failures);
  }
}

TEST(RunSweep, StageErrorNamesVariantAndReplicate) {
  std::vector<SweepVariant> variants = {{"ok-arm", tsubame3_model(), {}},
                                        {"sick-arm", tsubame3_model(), {}}};
  variants[0].stage = toy_stage();
  const std::uint64_t poison = replicate_seed(42, 2);
  variants[1].stage = [poison](const data::FailureLog&,
                               std::uint64_t seed) -> Result<std::vector<MetricSample>> {
    if (seed == poison) return Error(ErrorKind::kDomain, "stage exploded");
    return std::vector<MetricSample>{{"fine", 1.0}};
  };
  const auto result = run_sweep(variants, small_options(2));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("sick-arm"), std::string::npos)
      << result.error().message();
  EXPECT_NE(result.error().message().find("replicate 2"), std::string::npos)
      << result.error().message();
  EXPECT_NE(result.error().message().find("stage exploded"), std::string::npos)
      << result.error().message();
}

TEST(RunSweep, ThrowingStageBecomesAnInternalErrorNamingTheCell) {
  // Stages run on pool workers: whatever one throws, a std::exception or
  // not, comes back as its cell's kInternal error instead of ending the
  // process, and the worker goes on to its next cell.
  const std::uint64_t poison = replicate_seed(42, 1);
  for (const bool std_exception : {true, false}) {
    SCOPED_TRACE(std_exception ? "std::runtime_error" : "int");
    auto options = small_options(4);
    options.stage = [poison, std_exception](
                        const data::FailureLog&,
                        std::uint64_t seed) -> Result<std::vector<MetricSample>> {
      if (seed == poison) {
        if (std_exception) throw std::runtime_error("stage blew up");
        throw 7;
      }
      return std::vector<MetricSample>{{"fine", 1.0}};
    };
    const auto result = run_sweep(tsubame3_model(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind(), ErrorKind::kInternal);
    EXPECT_EQ(result.error().message(),
              "run_sweep: variant 'Tsubame-3' replicate 1: " +
                  std::string(std_exception ? "task threw: stage blew up"
                                            : "task threw a non-exception"));
  }
}

TEST(RunSweep, StageSweepBitIdenticalAtAnyJobsCount) {
  std::vector<SweepVariant> variants = {{"a", tsubame3_model(), {}},
                                        {"b", tsubame2_model(), {}}};
  variants[0].stage = toy_stage();
  auto serial_options = small_options(1);
  serial_options.stage = toy_stage();  // default for variant "b"
  const auto serial = run_sweep(variants, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error().message();
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    auto threaded_options = small_options(jobs);
    threaded_options.stage = toy_stage();
    const auto threaded = run_sweep(variants, threaded_options);
    ASSERT_TRUE(threaded.ok()) << threaded.error().message();
    expect_identical(serial.value(), threaded.value());
  }
}

// ---- errors -------------------------------------------------------------

TEST(RunSweep, RejectsBadInputs) {
  const std::vector<SweepVariant> none;
  EXPECT_FALSE(run_sweep(none, small_options()).ok());

  auto zero_replicates = small_options();
  zero_replicates.replicates = 0;
  EXPECT_FALSE(run_sweep(tsubame3_model(), zero_replicates).ok());

  auto bad_level = small_options();
  bad_level.ci_level = 1.0;
  EXPECT_FALSE(run_sweep(tsubame3_model(), bad_level).ok());

  auto no_bootstrap = small_options();
  no_bootstrap.bootstrap_replicates = 0;
  EXPECT_FALSE(run_sweep(tsubame3_model(), no_bootstrap).ok());

  const std::vector<SweepVariant> duplicates = {
      {"same", tsubame3_model(), {}},
      {"same", tsubame2_model(), {}},
  };
  const auto dup = run_sweep(duplicates, small_options());
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.error().message().find("same"), std::string::npos);
}

TEST(RunSweep, InvalidVariantModelNamesTheVariant) {
  SweepVariant broken{"broken-arm", tsubame3_model(), {}};
  broken.model.total_failures = 0;
  const std::vector<SweepVariant> variants = {{"ok", tsubame3_model(), {}}, broken};
  const auto result = run_sweep(variants, small_options());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("broken-arm"), std::string::npos);
  EXPECT_NE(result.error().message().find("total_failures"), std::string::npos);
}

}  // namespace
}  // namespace tsufail::sim
