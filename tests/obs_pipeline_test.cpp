// End-to-end observability of the sweep pipeline: a traced run_sweep
// covers every phase (generate / index / analyze / reduce) for every
// replicate cell, the Chrome-trace export of a real run validates, and
// the counter snapshot is bit-identical at --jobs 1/2/8 — the obs
// determinism contract on the sharded Monte Carlo engine.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/montecarlo.h"
#include "sim/tsubame_models.h"

namespace tsufail {
namespace {

sim::SweepOptions sweep_options(std::size_t jobs, std::size_t replicates) {
  sim::SweepOptions options;
  options.base_seed = 42;
  options.replicates = replicates;
  options.jobs = jobs;
  options.bootstrap_replicates = 200;
  return options;
}

class PipelineObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_trace();
    obs::reset_metrics();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_trace();
    obs::reset_metrics();
  }
};

std::map<std::string, std::size_t> spans_by_name(const obs::TraceSnapshot& snapshot) {
  std::map<std::string, std::size_t> counts;
  for (const auto& thread : snapshot.threads) {
    for (const auto& span : thread.spans) ++counts[span.name];
  }
  return counts;
}

TEST_F(PipelineObsTest, TracedSweepCoversEveryPhaseOfEveryCell) {
  constexpr std::size_t kReplicates = 2;
  auto sweep = sim::run_sweep(sim::tsubame3_model(), sweep_options(2, kReplicates));
  ASSERT_TRUE(sweep.ok()) << sweep.error().to_string();

  const auto snapshot = obs::collect_trace();
  ASSERT_EQ(snapshot.dropped_total(), 0u);
  const auto spans = spans_by_name(snapshot);
  const auto count = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? std::size_t{0} : it->second;
  };

  // One cell per replicate, and each cell ran all four phases (the index
  // build happens inside the cell's study).
  EXPECT_EQ(count("sweep.run"), 1u);
  EXPECT_EQ(count("sweep.cell"), kReplicates);
  EXPECT_EQ(count("sweep.generate"), kReplicates);
  EXPECT_EQ(count("sweep.analyze"), kReplicates);
  EXPECT_EQ(count("study.run"), kReplicates);
  EXPECT_GE(count("index.build"), kReplicates);
  EXPECT_EQ(count("sweep.reduce"), 1u);
  EXPECT_EQ(count("sweep.aggregate"), sweep.value().variants[0].aggregates.size());

  // Matching counters: cells completed and studies run.
  const auto metrics = obs::collect_metrics();
  ASSERT_NE(metrics.find_counter("sweep.cells"), nullptr);
  EXPECT_EQ(metrics.find_counter("sweep.cells")->value, kReplicates);
  ASSERT_NE(metrics.find_counter("study.runs"), nullptr);
  EXPECT_EQ(metrics.find_counter("study.runs")->value, kReplicates);
  ASSERT_NE(metrics.find_counter("index.builds"), nullptr);
  EXPECT_EQ(metrics.find_counter("index.builds")->value, count("index.build"));

  // The export of a real pipeline run is valid Chrome Trace Event JSON.
  auto check = obs::check_chrome_trace(obs::chrome_trace_json(snapshot));
  ASSERT_TRUE(check.ok()) << check.error().to_string();
  EXPECT_EQ(check.value().begin_events, snapshot.span_count());
}

TEST_F(PipelineObsTest, CounterSnapshotIsBitIdenticalAcrossJobs) {
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> runs;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    obs::reset_metrics();
    auto sweep = sim::run_sweep(sim::tsubame3_model(), sweep_options(jobs, 4));
    ASSERT_TRUE(sweep.ok()) << sweep.error().to_string();
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const auto& counter : obs::collect_metrics().counters)
      counters.emplace_back(counter.name, counter.value);
    runs.push_back(std::move(counters));
  }
  ASSERT_FALSE(runs[0].empty());
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
}

TEST_F(PipelineObsTest, DisabledSweepRecordsNoSpansOrCounts) {
  obs::set_enabled(false);
  auto sweep = sim::run_sweep(sim::tsubame3_model(), sweep_options(2, 2));
  ASSERT_TRUE(sweep.ok()) << sweep.error().to_string();
  EXPECT_EQ(obs::collect_trace().span_count(), 0u);
  for (const auto& counter : obs::collect_metrics().counters)
    EXPECT_EQ(counter.value, 0u) << counter.name;
}

}  // namespace
}  // namespace tsufail
