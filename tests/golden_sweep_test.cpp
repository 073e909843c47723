// Golden snapshot of the `tsufail sweep` text (ctest label: golden): a
// two-variant what-if sweep, the Tsubame-3 baseline beside an 8-GPU
// correlated arm, pinned byte for byte in its headline form and with
// --all-metrics.  Two variants exercise the variant term of the aggregate
// bootstrap seeds.  Each form runs through cli::dispatch at jobs 1 and 3
// and must match the one committed text.  Regenerate with
// TSUFAIL_UPDATE_GOLDEN=1 ctest -L golden.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "testkit/golden.h"

#ifndef TSUFAIL_GOLDEN_DIR
#error "TSUFAIL_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace tsufail::testkit {
namespace {

std::string sweep_text(bool all_metrics, const char* jobs) {
  std::vector<std::string> argv = {"sweep",  "--replicates",    "24", "--seed",
                                   "7",      "--gpus-per-node", "8",  "--correlated",
                                   "--jobs", jobs};
  if (all_metrics) argv.push_back("--all-metrics");
  std::ostringstream out, err;
  EXPECT_EQ(cli::dispatch(argv, out, err), 0) << err.str();
  return out.str();
}

void check_sweep(bool all_metrics, const std::string& file) {
  const std::string serial = sweep_text(all_metrics, "1");
  // Both variant sections must be there before the bytes are pinned.
  for (const char* needle : {"== Tsubame-3 (baseline) ==", "== what-if: 8 GPUs/node (correlated) =="})
    EXPECT_NE(serial.find(needle), std::string::npos) << needle;
  const std::string path = std::string(TSUFAIL_GOLDEN_DIR) + "/" + file;
  if (const auto failure = check_golden(path, serial)) FAIL() << "jobs 1: " << *failure;
  const std::string threaded = sweep_text(all_metrics, "3");
  if (const auto failure = check_golden(path, threaded)) FAIL() << "jobs 3: " << *failure;
  EXPECT_EQ(threaded, serial);
}

TEST(GoldenSweep, HeadlineMetrics) { check_sweep(false, "sweep_whatif.txt"); }

TEST(GoldenSweep, AllMetrics) { check_sweep(true, "sweep_whatif_all_metrics.txt"); }

}  // namespace
}  // namespace tsufail::testkit
