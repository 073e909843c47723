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

TEST(LegacyImport, ValidationKeepsRowErrorsAndRecordsUnderBothPolicies) {
  // Out of time order; one repair inside the two weeks' slack past the
  // window end (2020-02-22), one failure past it, one CPU record listing a
  // GPU slot, and a GPU failure at the same minute as an earlier line.
  const std::string good_lines =
      "10/06/2018;08:00;r00n00;Software;0.50;-;gpu driver problem\n"
      "09/06/2018;13:45;r02n11;GPU;1.25;G0+G3\n"
      "06/03/2020;12:00;r01n01;CPU;0.25;-\n";
  const std::string bad_lines =
      "08/03/2020;12:00;r01n02;CPU;0.25;-\n"
      "09/06/2018;13:45;r03n00;CPU;1.00;G1\n";
  const std::string text = "#legacy-v1 Tsubame-3\n" + good_lines + bad_lines +
                           "09/06/2018;13:45;r04n00;GPU;2.00;G1\n";

  auto lenient = import_legacy_v1(text, ReadPolicy::kLenient);
  ASSERT_TRUE(lenient.ok()) << lenient.error().to_string();
  const auto& errors = lenient.value().row_errors;
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].line_number, 5u);
  EXPECT_NE(errors[0].message.find("outside the log window"), std::string::npos)
      << errors[0].message;
  EXPECT_EQ(errors[1].line_number, 6u);
  EXPECT_NE(errors[1].message.find("non-GPU-related category 'CPU'"), std::string::npos)
      << errors[1].message;

  // Sorted by time, stably: the two 13:45 failures keep their line order.
  const auto records = lenient.value().log.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].node, 2 * 36 + 11);
  EXPECT_EQ(records[1].node, 4 * 36);
  EXPECT_EQ(records[2].category, Category::kSoftware);
  EXPECT_EQ(records[3].time.to_civil(), (CivilDateTime{2020, 3, 6, 12, 0, 0}));

  auto strict = import_legacy_v1(text, ReadPolicy::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().kind(), ErrorKind::kValidation);
  EXPECT_NE(strict.error().to_string().find("line 5"), std::string::npos)
      << strict.error().to_string();
  EXPECT_NE(strict.error().to_string().find("outside the log window"), std::string::npos)
      << strict.error().to_string();

  // Without the two refused lines, strict keeps exactly lenient's records.
  auto clean = import_legacy_v1("#legacy-v1 Tsubame-3\n" + good_lines +
                                    "09/06/2018;13:45;r04n00;GPU;2.00;G1\n",
                                ReadPolicy::kStrict);
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  EXPECT_TRUE(clean.value().row_errors.empty());
  ASSERT_EQ(clean.value().log.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(clean.value().log.records()[i].time, records[i].time);
    EXPECT_EQ(clean.value().log.records()[i].node, records[i].node);
  }
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
