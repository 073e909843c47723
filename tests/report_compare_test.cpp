// Direct unit tests for report::Comparison / report::ComparisonSet —
// tolerance handling (including the near-zero-paper absolute criterion),
// mismatch reporting, and the identical-report fast path.
#include <gtest/gtest.h>

#include "report/compare.h"

namespace tsufail::report {
namespace {

TEST(Comparison, DeltasAgainstPaperValue) {
  const Comparison row{"mtbf", 20.0, 23.0, 0.15, "h"};
  EXPECT_DOUBLE_EQ(row.abs_delta(), 3.0);
  EXPECT_DOUBLE_EQ(row.rel_delta(), 0.15);
}

TEST(Comparison, RelDeltaIsSymmetricInSign) {
  const Comparison above{"m", 10.0, 12.0, 0.15, ""};
  const Comparison below{"m", 10.0, 8.0, 0.15, ""};
  EXPECT_DOUBLE_EQ(above.rel_delta(), below.rel_delta());
  const Comparison negative_paper{"m", -10.0, -12.0, 0.15, ""};
  EXPECT_DOUBLE_EQ(negative_paper.rel_delta(), 0.2);
}

TEST(Comparison, ToleranceBoundaryIsInclusive) {
  EXPECT_TRUE((Comparison{"m", 100.0, 115.0, 0.15, ""}).within_tolerance());
  EXPECT_FALSE((Comparison{"m", 100.0, 115.1, 0.15, ""}).within_tolerance());
}

TEST(Comparison, NearZeroPaperUsesAbsoluteCriterion) {
  // paper == 0 would make any deviation an infinite relative delta; the
  // verdict falls back to |measured| <= rel_tolerance.
  EXPECT_TRUE((Comparison{"share", 0.0, 0.1, 0.15, "%"}).within_tolerance());
  EXPECT_FALSE((Comparison{"share", 0.0, 0.2, 0.15, "%"}).within_tolerance());
  // Just below the 1e-9 threshold behaves like zero...
  EXPECT_TRUE((Comparison{"share", 5e-10, 0.1, 0.15, "%"}).within_tolerance());
  // ...and a real (if small) paper value uses the relative criterion.
  EXPECT_FALSE((Comparison{"share", 1e-3, 0.1, 0.15, "%"}).within_tolerance());
}

TEST(Comparison, ExactMatchAlwaysPasses) {
  EXPECT_TRUE((Comparison{"m", 42.0, 42.0, 0.0, ""}).within_tolerance());
  EXPECT_TRUE((Comparison{"m", 0.0, 0.0, 0.0, ""}).within_tolerance());
}

TEST(ComparisonSet, CountsMatches) {
  ComparisonSet set("RQ4");
  set.add("mtbf", 20.0, 21.0);          // 5% off -> match at default 15%
  set.add("p75", 10.0, 14.0);           // 40% off -> off
  set.add("gpu mtbf", 50.0, 50.0, 0.0); // exact
  EXPECT_EQ(set.matched(), 2u);
  EXPECT_FALSE(set.all_within_tolerance());
}

TEST(ComparisonSet, IdenticalReportFastPath) {
  // Every row identical to the paper: matched == size regardless of the
  // tolerance, including zero tolerance.
  ComparisonSet set("identical");
  set.add("a", 1.0, 1.0, 0.0);
  set.add("b", 0.0, 0.0, 0.0);
  set.add("c", -7.5, -7.5, 0.0);
  EXPECT_EQ(set.matched(), set.rows().size());
  EXPECT_TRUE(set.all_within_tolerance());
}

TEST(ComparisonSet, EmptySetIsVacuouslyWithinTolerance) {
  ComparisonSet set("empty");
  EXPECT_EQ(set.matched(), 0u);
  EXPECT_TRUE(set.all_within_tolerance());
}

TEST(ComparisonSet, RenderReportsVerdictsAndTally) {
  ComparisonSet set("RQ5");
  set.add("mttr", 10.0, 10.5, 0.15, "h");
  set.add("p95", 100.0, 160.0, 0.15, "h");
  set.add("share", 0.0, 0.05, 0.15, "%");
  const std::string text = set.render();
  EXPECT_NE(text.find("RQ5"), std::string::npos) << text;
  EXPECT_NE(text.find("MATCH"), std::string::npos) << text;
  EXPECT_NE(text.find("OFF"), std::string::npos) << text;
  EXPECT_NE(text.find("matched 2/3"), std::string::npos) << text;
  EXPECT_NE(text.find("[h]"), std::string::npos) << text;
  // The near-zero row shows an absolute |delta|, not a percent.
  EXPECT_NE(text.find("|0.05|"), std::string::npos) << text;
}

}  // namespace
}  // namespace tsufail::report
