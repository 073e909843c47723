// Golden-snapshot tests: the full markdown study report for the
// Tsubame-2 and Tsubame-3 presets, and for Tsubame-3 scaled to fleet
// size, is pinned byte-for-byte against checked-in golden files (ctest
// label: golden).  A mismatch prints a line diff; regenerate with
// TSUFAIL_UPDATE_GOLDEN=1 ctest -L golden.
#include <gtest/gtest.h>

#include "testkit/golden.h"

#ifndef TSUFAIL_GOLDEN_DIR
#error "TSUFAIL_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace tsufail::testkit {
namespace {

void check_machine(data::Machine machine, const std::string& file) {
  auto markdown = golden_report_markdown(machine);
  ASSERT_TRUE(markdown.ok()) << markdown.error().to_string();
  EXPECT_FALSE(markdown.value().empty());
  const std::string path = std::string(TSUFAIL_GOLDEN_DIR) + "/" + file;
  const auto failure = check_golden(path, markdown.value());
  if (failure.has_value()) FAIL() << *failure;
}

TEST(GoldenReport, Tsubame2) { check_machine(data::Machine::kTsubame2, "tsubame2_report.md"); }

TEST(GoldenReport, Tsubame3) { check_machine(data::Machine::kTsubame3, "tsubame3_report.md"); }

TEST(GoldenReport, Tsubame3Fleet) {
  // Samples this size reach code that paper-scale logs never run (the
  // radix sort above its cutoff, long KS scans), so it gets its own pin.
  auto markdown = golden_fleet_report_markdown();
  ASSERT_TRUE(markdown.ok()) << markdown.error().to_string();
  const auto failure =
      check_golden(std::string(TSUFAIL_GOLDEN_DIR) + "/tsubame3_fleet_report.md", markdown.value());
  if (failure.has_value()) FAIL() << *failure;
}

TEST(GoldenReport, RenderingIsDeterministic) {
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    auto first = golden_report_markdown(machine);
    auto second = golden_report_markdown(machine);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value(), second.value())
        << "markdown report is not deterministic for " << data::to_string(machine);
  }
}

}  // namespace
}  // namespace tsufail::testkit
