// Property suite for sim::montecarlo: for randomly mutated machine
// models (ablated knobs, rescaled fleets and GPU densities, odd failure
// counts), a sweep must stay bit-identical between serial and threaded
// execution, and the aggregates must be honest summaries of the
// per-replicate metrics.  The scalars-only study the sweep runs must
// yield the full study's metrics on every log.  Follows the testkit
// replay contract: TSUFAIL_TEST_SEED pins the model and log streams,
// TSUFAIL_TEST_ITERS deepens them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "data/log_index.h"
#include "sim/generator.h"
#include "sim/montecarlo.h"
#include "sim/scaling.h"
#include "sim/tsubame_models.h"
#include "testkit/generator.h"
#include "testkit/property.h"
#include "util/rng.h"

namespace tsufail::sim {
namespace {

/// Draws a random-but-valid machine model: a Tsubame preset with random
/// knob ablations, an optional density/fleet rescale, and a perturbed
/// failure count.  Deterministic in the rng state.
MachineModel random_model(Rng& rng) {
  MachineModel model = rng.uniform() < 0.5 ? tsubame2_model() : tsubame3_model();
  model.knobs.enable_bursts = rng.uniform() < 0.8;
  model.knobs.enable_node_heterogeneity = rng.uniform() < 0.8;
  model.knobs.enable_slot_weights = rng.uniform() < 0.8;
  model.knobs.enable_seasonal = rng.uniform() < 0.8;
  if (rng.uniform() < 0.4) {
    const int gpus = 2 + static_cast<int>(rng.uniform_index(7));  // 2..8 GPUs per node
    const auto regime = rng.uniform() < 0.5 ? InvolvementRegime::kCorrelated
                                            : InvolvementRegime::kIndependent;
    if (auto scaled = scale_gpu_density(model, gpus, regime); scaled.ok())
      model = std::move(scaled.value());
  }
  model.total_failures = 40 + rng.uniform_index(360);  // 40..399
  return model;
}

TEST(MontecarloProperty, ThreadedSweepMatchesSerialOnAdversarialModels) {
  const std::uint64_t seed = testkit::test_seed();
  const std::size_t iterations = testkit::scaled_iterations(8);
  Rng rng(seed);
  for (std::size_t i = 0; i < iterations; ++i) {
    const MachineModel model = random_model(rng);
    SweepOptions options;
    options.base_seed = rng();
    options.replicates = 2 + rng.uniform_index(3);  // 2..4
    options.bootstrap_replicates = 100;
    options.jobs = 1;
    const auto serial = run_sweep(model, options);
    ASSERT_TRUE(serial.ok()) << "iteration " << i << " (TSUFAIL_TEST_SEED=" << seed
                             << "): " << serial.error().message();
    options.jobs = 3;
    const auto threaded = run_sweep(model, options);
    ASSERT_TRUE(threaded.ok()) << threaded.error().message();

    const auto& a = serial.value().variants[0];
    const auto& b = threaded.value().variants[0];
    ASSERT_EQ(a.replicates.size(), b.replicates.size());
    for (std::size_t r = 0; r < a.replicates.size(); ++r) {
      EXPECT_EQ(a.replicates[r].seed, b.replicates[r].seed);
      ASSERT_EQ(a.replicates[r].metrics.size(), b.replicates[r].metrics.size())
          << "iteration " << i << " replicate " << r << " (TSUFAIL_TEST_SEED=" << seed << ")";
      for (std::size_t m = 0; m < a.replicates[r].metrics.size(); ++m) {
        EXPECT_EQ(a.replicates[r].metrics[m].name, b.replicates[r].metrics[m].name);
        EXPECT_EQ(a.replicates[r].metrics[m].value, b.replicates[r].metrics[m].value)
            << "iteration " << i << " " << a.replicates[r].metrics[m].name
            << " (TSUFAIL_TEST_SEED=" << seed << ")";
      }
    }
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
    for (std::size_t m = 0; m < a.aggregates.size(); ++m) {
      EXPECT_EQ(a.aggregates[m].mean, b.aggregates[m].mean) << a.aggregates[m].name;
      EXPECT_EQ(a.aggregates[m].mean_ci.low, b.aggregates[m].mean_ci.low);
      EXPECT_EQ(a.aggregates[m].mean_ci.high, b.aggregates[m].mean_ci.high);
    }
  }
}

TEST(MontecarloProperty, AggregatesAreHonestSummaries) {
  const std::uint64_t seed = testkit::test_seed();
  const std::size_t iterations = testkit::scaled_iterations(6);
  Rng rng(seed ^ 0xA66B);
  for (std::size_t i = 0; i < iterations; ++i) {
    const MachineModel model = random_model(rng);
    SweepOptions options;
    options.base_seed = rng();
    options.replicates = 3;
    options.bootstrap_replicates = 100;
    options.jobs = 2;
    const auto result = run_sweep(model, options);
    ASSERT_TRUE(result.ok()) << "iteration " << i << " (TSUFAIL_TEST_SEED=" << seed
                             << "): " << result.error().message();
    const auto& variant = result.value().variants[0];
    for (const auto& aggregate : variant.aggregates) {
      std::vector<double> values;
      for (const auto& replicate : variant.replicates)
        for (const auto& metric : replicate.metrics)
          if (metric.name == aggregate.name) values.push_back(metric.value);
      ASSERT_EQ(aggregate.n, values.size()) << aggregate.name;
      ASSERT_FALSE(values.empty());
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      // The mean and its bootstrap CI live inside the replicate range.
      EXPECT_GE(aggregate.mean, *lo - 1e-9) << aggregate.name;
      EXPECT_LE(aggregate.mean, *hi + 1e-9) << aggregate.name;
      EXPECT_GE(aggregate.mean_ci.low, *lo - 1e-9) << aggregate.name;
      EXPECT_LE(aggregate.mean_ci.high, *hi + 1e-9) << aggregate.name;
      EXPECT_LE(aggregate.mean_ci.low, aggregate.mean_ci.high) << aggregate.name;
      EXPECT_GE(aggregate.stddev, 0.0) << aggregate.name;
    }
  }
}

/// The scalars-only study cannot change a metric: study_metrics of its
/// report equals that of the full study name for name and bit for bit,
/// and it carries no loci ranking.  Neither study fits a family.  Both
/// studies must fail alike where one fails.
std::optional<std::string> scalars_only_keeps_every_metric(const data::FailureLog& log) {
  const data::LogIndex index(log);
  const auto full = analysis::run_study(index);
  const auto reduced = analysis::run_study(index, {.jobs = 1, .scalars_only = true});
  if (!full.ok() || !reduced.ok()) {
    if (full.ok() == reduced.ok() && full.error().message() == reduced.error().message())
      return std::nullopt;
    return std::string("the studies disagree on failing: full ") +
           (full.ok() ? "ok" : full.error().message()) + ", scalars-only " +
           (reduced.ok() ? "ok" : reduced.error().message());
  }
  const auto expected = study_metrics(full.value());
  const auto actual = study_metrics(reduced.value());
  if (actual.size() != expected.size())
    return "scalars-only emits " + std::to_string(actual.size()) + " metrics, full " +
           std::to_string(expected.size());
  for (std::size_t m = 0; m < expected.size(); ++m) {
    if (actual[m].name != expected[m].name ||
        std::bit_cast<std::uint64_t>(actual[m].value) !=
            std::bit_cast<std::uint64_t>(expected[m].value))
      return "metric " + std::to_string(m) + ": scalars-only " + actual[m].name + "=" +
             std::to_string(actual[m].value) + ", full " + expected[m].name + "=" +
             std::to_string(expected[m].value);
  }
  if (reduced.value().software_loci.has_value()) return std::string("scalars-only ranked the loci");
  const auto fitted = [](const analysis::StudyReport& report) {
    return (report.tbf.has_value() && report.tbf->best_family.has_value()) ||
           report.ttr.best_family.has_value();
  };
  if (fitted(full.value())) return std::string("the full study fitted a family");
  if (fitted(reduced.value())) return std::string("the scalars-only study fitted a family");
  return std::nullopt;
}

TEST(MontecarloProperty, ScalarsOnlyStudyKeepsEveryMetric) {
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    SCOPED_TRACE(data::to_string(machine));
    for (const testkit::EdgeCase& ec : testkit::edge_case_logs(machine)) {
      const auto failure = scalars_only_keeps_every_metric(ec.log);
      EXPECT_FALSE(failure.has_value()) << "edge case '" << ec.name << "': " << *failure;
    }

    // Calibrated logs, where the full study does rank the loci: the check
    // above is not vacuous.
    const MachineModel& model =
        machine == data::Machine::kTsubame2 ? tsubame2_model() : tsubame3_model();
    const std::uint64_t seed = testkit::test_seed();
    for (std::uint64_t r = 0; r < 2; ++r) {
      const auto log = generate_log(model, replicate_seed(seed, r));
      ASSERT_TRUE(log.ok()) << log.error().to_string();
      const auto full = analysis::run_study(log.value());
      ASSERT_TRUE(full.ok()) << full.error().to_string();
      EXPECT_TRUE(full.value().software_loci.has_value());
      const auto failure = scalars_only_keeps_every_metric(log.value());
      EXPECT_FALSE(failure.has_value())
          << "calibrated log r" << r << " (TSUFAIL_TEST_SEED=" << seed << "): " << *failure;
    }

    testkit::PropertyOptions options;
    options.gen.machine = machine;
    options.iterations = 32;
    const auto ce =
        testkit::check_property("scalars-only-study", options, scalars_only_keeps_every_metric);
    if (ce.has_value()) ADD_FAILURE() << ce->describe();
  }
}

}  // namespace
}  // namespace tsufail::sim
