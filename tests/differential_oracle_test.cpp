// Differential verification: every analysis recomputed with the naive
// O(n^2) reference and diffed against both the FailureLog and LogIndex
// fast paths, plus run_study at 1/2/8 worker threads — over the edge
// corpus, calibrated simulator logs, and random adversarial logs (ctest
// label: property; TSUFAIL_TEST_SEED replays, TSUFAIL_TEST_ITERS deepens).
#include <gtest/gtest.h>

#include "data/columnar.h"
#include "data/log_index.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "testkit/oracle.h"
#include "testkit/property.h"

namespace tsufail::testkit {
namespace {

TEST(DifferentialOracle, EdgeCaseCorpus) {
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    for (const EdgeCase& ec : edge_case_logs(machine)) {
      const OracleReport report = run_oracle(ec.log);
      EXPECT_TRUE(report.ok()) << "edge case '" << ec.name << "' ("
                               << data::to_string(machine) << "):\n"
                               << report.str() << describe_log(ec.log);
    }
  }
}

TEST(DifferentialOracle, CalibratedTsubamePresets) {
  const std::uint64_t seed = test_seed();
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    const sim::MachineModel& model = machine == data::Machine::kTsubame2
                                         ? sim::tsubame2_model()
                                         : sim::tsubame3_model();
    auto log = sim::generate_log(model, seed);
    ASSERT_TRUE(log.ok()) << log.error().to_string();
    const OracleReport report = run_oracle(log.value());
    EXPECT_TRUE(report.ok()) << data::to_string(machine) << " (seed " << seed << "):\n"
                             << report.str();
  }
}

TEST(DifferentialOracle, RandomLogsBothMachines) {
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    PropertyOptions options;
    options.gen.machine = machine;
    options.iterations = 24;  // each iteration runs every analysis x 3 paths
    const auto ce = check_property("differential-oracle", options, oracle_property);
    if (ce.has_value()) FAIL() << data::to_string(machine) << ":\n" << ce->describe();
  }
}

TEST(DifferentialOracle, DenseTieHeavyLogs) {
  // Crank the adversarial knobs: everything simultaneous, clustered, and
  // multi-GPU — the regime where index spans, tie-breaking, and worker
  // scheduling are most likely to diverge.
  PropertyOptions options;
  options.gen.min_records = 32;
  options.gen.duplicate_time_probability = 0.45;
  options.gen.burst_probability = 0.45;
  options.gen.multi_gpu_probability = 0.7;
  options.gen.hot_node_probability = 0.8;
  options.iterations = 12;
  const auto ce = check_property("differential-oracle-dense", options, oracle_property);
  if (ce.has_value()) FAIL() << ce->describe();
}

TEST(DifferentialOracle, SnapshotRejectsTruncationAndCorruption) {
  // run_oracle's snapshot_roundtrip check covers the happy path over the
  // whole corpus above; here the same adversarial logs are packed and
  // then damaged — every truncation and every single-bit payload flip
  // must be rejected as a value-level error, never accepted or crashed.
  PropertyOptions gen_options;
  gen_options.gen.min_records = 1;
  Rng rng(test_seed());
  for (int round = 0; round < 8; ++round) {
    const data::FailureLog log = random_log(gen_options.gen, rng);
    const std::string bytes = data::pack_columnar(log);
    for (std::size_t keep = 0; keep < bytes.size(); keep += 17) {
      EXPECT_FALSE(data::ColumnarSnapshot::from_bytes(std::string_view(bytes).substr(0, keep)).ok())
          << "accepted a " << keep << "-byte prefix of " << bytes.size() << " bytes";
    }
    // Flip one bit somewhere in the payload (past the 48-byte header).
    std::string corrupt = bytes;
    const std::size_t victim = 48 + rng.uniform_index(corrupt.size() - 48);
    corrupt[victim] = static_cast<char>(corrupt[victim] ^ 0x10);
    EXPECT_FALSE(data::ColumnarSnapshot::from_bytes(corrupt).ok())
        << "accepted a bit flip at byte " << victim << describe_log(log);
  }
}

TEST(DifferentialOracle, WideThreadSweep) {
  // The acceptance criterion pins >= 3 thread counts; sweep a wider set
  // on one log, including 0 (= hardware concurrency).
  PropertyOptions gen_options;
  gen_options.gen.min_records = 48;
  Rng rng(test_seed());
  const data::FailureLog log = random_log(gen_options.gen, rng);
  OracleOptions options;
  options.thread_counts = {1, 2, 3, 4, 8, 0};
  const OracleReport report = run_oracle(log, options);
  EXPECT_TRUE(report.ok()) << report.str() << describe_log(log);
}

}  // namespace
}  // namespace tsufail::testkit
