// Tests for the legacy-v1 operator-format importer/exporter.
#include "data/legacy_import.h"

#include <gtest/gtest.h>

#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::data {
namespace {

constexpr const char* kGoodLog =
    "#legacy-v1 Tsubame-3\n"
    "# repairs sheet, SXM2 hall\n"
    "09/06/2018;13:45;r02n11;GPU;1.25;G0+G3;fell off the bus\n"
    "10/06/2018;08:00;r00n00;Software;0.50;-;gpu driver problem\n"
    "\n"
    "11/06/2018;23:59;r14n35;Power-Board;9.00;-\n";

TEST(LegacyImport, ParsesGoodLog) {
  auto report = import_legacy_v1(kGoodLog);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().row_errors.empty());
  const auto& log = report.value().log;
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.machine(), Machine::kTsubame3);

  const auto& gpu = log.records()[0];
  EXPECT_EQ(gpu.category, Category::kGpu);
  EXPECT_EQ(gpu.node, 2 * 36 + 11);
  EXPECT_EQ(gpu.time.to_civil(), (CivilDateTime{2018, 6, 9, 13, 45, 0}));  // day-first
  EXPECT_DOUBLE_EQ(gpu.ttr_hours, 30.0);  // 1.25 days
  EXPECT_EQ(gpu.gpu_slots, (std::vector<int>{0, 3}));
  EXPECT_TRUE(gpu.root_locus.empty());  // notes only kept for software class

  const auto& software = log.records()[1];
  EXPECT_EQ(software.root_locus, "gpu driver problem");
  EXPECT_EQ(software.node, 0);

  const auto& power = log.records()[2];
  EXPECT_EQ(power.node, 14 * 36 + 35);
  EXPECT_DOUBLE_EQ(power.ttr_hours, 216.0);
}

TEST(LegacyImport, HeaderRequired) {
  EXPECT_FALSE(import_legacy_v1("09/06/2018;13:45;r02n11;GPU;1.0;-\n").ok());
  EXPECT_FALSE(import_legacy_v1("#legacy-v1 Cray-1\n09/06/2018;13:45;r0n0;GPU;1;-\n").ok());
  EXPECT_FALSE(import_legacy_v1("").ok());
}

TEST(LegacyImport, LenientSkipsBadLines) {
  const std::string text =
      "#legacy-v1 Tsubame-3\n"
      "09/06/2018;13:45;r02n11;GPU;1.25;G0\n"
      "31/02/2018;13:45;r02n11;GPU;1.25;G0\n"      // impossible date
      "09/06/2018;13:45;rXXn11;GPU;1.25;G0\n"      // bad node name
      "09/06/2018;13:45;r02n11;Warp;1.25;G0\n"     // unknown category
      "09/06/2018;13:45;r02n11;GPU;oops;G0\n"      // bad downtime
      "09/06/2018;13:45;r02n11;GPU;1.25;G9\n"      // slot out of range
      "09/06/2018;13:45;r02n11;GPU;1.25;G4294967296\n"  // slot outside int (wraps to 0)
      "09/06/4294969314;13:45;r02n11;GPU;1.25;G0\n";    // year outside int (wraps to 2018)
  auto report = import_legacy_v1(text, ReadPolicy::kLenient);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), 1u);
  ASSERT_EQ(report.value().row_errors.size(), 7u);
  EXPECT_EQ(report.value().row_errors[5].line_number, 8u);
  EXPECT_NE(report.value().row_errors[5].message.find("'4294967296'"), std::string::npos);
  EXPECT_NE(report.value().row_errors[6].message.find("4294969314"), std::string::npos);
}

TEST(LegacyImport, StrictFailsOnFirstBadLine) {
  const std::string text =
      "#legacy-v1 Tsubame-3\n"
      "09/06/2018;13:45;r02n11;GPU;1.25;G0\n"
      "not;a;valid;line;at;all\n";
  auto report = import_legacy_v1(text, ReadPolicy::kStrict);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message().find("line 3"), std::string::npos);
}

TEST(LegacyNodeName, ParsingAndRanges) {
  const auto& spec = tsubame3_spec();  // 15 racks x 36 nodes
  EXPECT_EQ(parse_legacy_node_name("r00n00", spec).value(), 0);
  EXPECT_EQ(parse_legacy_node_name("r01n00", spec).value(), 36);
  EXPECT_EQ(parse_legacy_node_name("R14N35", spec).value(), 539);
  EXPECT_FALSE(parse_legacy_node_name("r15n00", spec).ok());   // rack out of range
  EXPECT_FALSE(parse_legacy_node_name("r00n36", spec).ok());   // index out of range
  EXPECT_FALSE(parse_legacy_node_name("node7", spec).ok());
  EXPECT_FALSE(parse_legacy_node_name("r1", spec).ok());
}

TEST(LegacyRoundTrip, GeneratedLogSurvives) {
  const auto original = sim::generate_log(sim::tsubame3_model(), 21).value();
  auto report = import_legacy_v1(export_legacy_v1(original), ReadPolicy::kLenient);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().row_errors.empty());
  const auto& back = report.value().log;
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(back.records()[i].node, original.records()[i].node);
    EXPECT_EQ(back.records()[i].category, original.records()[i].category);
    // Legacy format drops seconds: timestamps agree to the minute,
    // downtime to ~0.1 s (6 decimal days).
    EXPECT_NEAR(static_cast<double>(back.records()[i].time.seconds_since_epoch()),
                static_cast<double>(original.records()[i].time.seconds_since_epoch()), 60.0);
    EXPECT_NEAR(back.records()[i].ttr_hours, original.records()[i].ttr_hours, 1e-4);
    EXPECT_EQ(back.records()[i].gpu_slots, original.records()[i].gpu_slots);
  }
}

TEST(LegacyImport, FileErrors) {
  EXPECT_FALSE(import_legacy_v1_file("/nope/missing.legacy").ok());
}

}  // namespace
}  // namespace tsufail::data
