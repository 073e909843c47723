// Tests for the CSV log schema: round trips, lenient/strict policies,
// and failure injection with malformed rows.
#include <gtest/gtest.h>

#include <cstdio>

#include "data/log_io.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "testkit/generator.h"
#include "util/strings.h"

namespace tsufail::data {
namespace {

constexpr const char* kHeader =
    "machine,timestamp,node,category,ttr_hours,gpu_slots,root_locus\n";

TEST(GpuSlots, FormatAndParse) {
  EXPECT_EQ(format_gpu_slots({}), "");
  EXPECT_EQ(format_gpu_slots({0}), "0");
  EXPECT_EQ(format_gpu_slots({0, 2}), "0|2");
  EXPECT_EQ(parse_gpu_slots("").value(), (std::vector<int>{}));
  EXPECT_EQ(parse_gpu_slots("1").value(), (std::vector<int>{1}));
  EXPECT_EQ(parse_gpu_slots("0|1|3").value(), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(parse_gpu_slots(" 0 | 2 ").value(), (std::vector<int>{0, 2}));
  EXPECT_FALSE(parse_gpu_slots("0|x").ok());
}

TEST(ReadLog, MinimalDocument) {
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2,\n"
                          "Tsubame-2,2012-06-02 11:00:00,6,PBS,2.0,,batch stuck\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().row_errors.empty());
  const auto& log = report.value().log;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.machine(), Machine::kTsubame2);
  EXPECT_EQ(log.records()[0].category, Category::kGpu);
  EXPECT_EQ(log.records()[0].gpu_slots, (std::vector<int>{0, 2}));
  EXPECT_DOUBLE_EQ(log.records()[0].ttr_hours, 20.5);
  EXPECT_EQ(log.records()[1].root_locus, "batch stuck");
}

TEST(ReadLog, CrLfAndUtf8BomDocument) {
  // A log exported from a spreadsheet: UTF-8 BOM plus CRLF line endings.
  // Both must be absorbed before the schema sees the header.
  const std::string csv =
      "\xEF\xBB\xBF"
      "machine,timestamp,node,category,ttr_hours,gpu_slots,root_locus\r\n"
      "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2,\r\n"
      "Tsubame-2,2012-06-02 11:00:00,6,PBS,2.0,,batch stuck\r\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().row_errors.empty());
  const auto& log = report.value().log;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].gpu_slots, (std::vector<int>{0, 2}));
  // The final CRLF-terminated field must not carry a trailing '\r'.
  EXPECT_EQ(log.records()[1].root_locus, "batch stuck");
}

TEST(ReadLog, ColumnOrderIsFree) {
  const std::string csv =
      "category,node,machine,ttr_hours,root_locus,gpu_slots,timestamp\n"
      "GPU,5,Tsubame-2,20.5,,0,2012-06-01 10:00:00\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.records()[0].node, 5);
}

TEST(ReadLog, MissingColumnIsError) {
  auto report = read_log_csv("machine,timestamp,node\nT2,2012-06-01,5\n");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message().find("category"), std::string::npos);
}

TEST(ReadLog, LenientSkipsMalformedRows) {
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-2,not-a-date,5,GPU,20.5,0,\n"          // bad timestamp
                          "Tsubame-2,2012-06-03 10:00:00,x,GPU,20.5,0,\n" // bad node
                          "Tsubame-2,2012-06-04 10:00:00,5,Alien,1.0,,\n" // bad category
                          "Tsubame-2,2012-06-05 10:00:00,5,GPU,oops,0,\n" // bad ttr
                          "Tsubame-2,2012-06-06 10:00:00,5,GPU,3.0,9,\n"; // bad slot
  auto report = read_log_csv(csv, ReadPolicy::kLenient);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), 1u);
  EXPECT_EQ(report.value().row_errors.size(), 5u);
}

TEST(ReadLog, LenientReportsRowErrors) {
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-2,not-a-date,5,GPU,20.5,0,\n"
                          "Tsubame-2,2012-06-04 10:00:00,5,Alien,1.0,,\n";
  auto report = read_log_csv(csv, ReadPolicy::kLenient);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), 1u);
  ASSERT_EQ(report.value().row_errors.size(), 2u);
  EXPECT_EQ(report.value().row_errors[0].line_number, 3u);
  EXPECT_EQ(report.value().row_errors[1].line_number, 4u);
}

TEST(ReadLog, StrictFailsOnFirstBadRow) {
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-2,not-a-date,5,GPU,20.5,0,\n";
  auto report = read_log_csv(csv, ReadPolicy::kStrict);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message().find("line 3"), std::string::npos);
}

TEST(ReadLog, MixedMachinesRejected) {
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-3,2012-06-02 10:00:00,5,GPU,20.5,0,\n";
  auto strict = read_log_csv(csv, ReadPolicy::kStrict);
  EXPECT_FALSE(strict.ok());
  auto lenient = read_log_csv(csv, ReadPolicy::kLenient);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient.value().log.size(), 1u);
  EXPECT_EQ(lenient.value().row_errors.size(), 1u);
}

TEST(ReadLog, NoParsableRowsIsError) {
  auto report = read_log_csv(std::string(kHeader) + "Tsubame-2,bad,bad,bad,bad,bad,\n");
  EXPECT_FALSE(report.ok());
}

TEST(ReadLog, QuotedRootLocusWithComma) {
  const std::string csv = std::string(kHeader) +
                          "Tsubame-3,2018-06-01 10:00:00,5,Software,2.0,,\"driver, cuda 9\"\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.records()[0].root_locus, "driver, cuda 9");
}

// --- Reader edge behavior ------------------------------------------------

TEST(ReadLog, QuotedLocusWithNewlineAndDoubledQuoteKeepsLineNumbers) {
  // The first data record spans lines 2-3; the bad row after it must
  // still be reported on its own physical line.
  const std::string csv = std::string(kHeader) +
                          "Tsubame-3,2018-06-01 10:00:00,5,Software,2.0,,"
                          "\"driver \"\"nv\"\"\nsecond line\"\n"
                          "Tsubame-3,2018-06-02 10:00:00,x,Software,2.0,,\n"
                          "Tsubame-3,2018-06-03 10:00:00,6,Lustre,1.0,,\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().log.size(), 2u);
  EXPECT_EQ(report.value().log.records()[0].root_locus, "driver \"nv\"\nsecond line");
  ASSERT_EQ(report.value().row_errors.size(), 1u);
  EXPECT_EQ(report.value().row_errors[0].line_number, 4u);
  EXPECT_EQ(report.value().row_errors[0].message, "parse: node: not an integer: 'x'");

  auto strict = read_log_csv(csv, ReadPolicy::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().kind(), ErrorKind::kParse);
  EXPECT_EQ(strict.error().message(), "line 4: node: not an integer: 'x'");
}

TEST(ReadLog, BlankLinesAnywhereAreSkipped) {
  const std::string csv = "\n" + std::string(kHeader) +
                          "\n"
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                          "   \n"
                          "\r\n"
                          "Tsubame-2,2012-06-02 10:00:00,5,GPU,oops,0,\n"
                          "\n"
                          "Tsubame-2,2012-06-03 10:00:00,6,PBS,1.0,,\n"
                          "\n\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), 2u);
  ASSERT_EQ(report.value().row_errors.size(), 1u);
  EXPECT_EQ(report.value().row_errors[0].line_number, 7u);
  EXPECT_EQ(report.value().row_errors[0].message, "parse: ttr_hours: not a number: 'oops'");
}

TEST(ReadLog, ExtraReorderedAndMixedCaseColumns) {
  // Unknown columns are ignored, names match case-insensitively after
  // trimming, and the first of two same-named columns wins.
  const std::string csv =
      "Site, NODE ,Category,extra,MACHINE,TTR_Hours,gpu_slots,TimeStamp,Root_Locus,node\n"
      "tokyo,5,GPU,\"a,b\",Tsubame-2,20.5,0|1,2012-06-01 10:00:00,  board  ,999\n";
  auto report = read_log_csv(csv, ReadPolicy::kStrict);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().log.size(), 1u);
  const FailureRecord& record = report.value().log.records()[0];
  EXPECT_EQ(record.node, 5);
  EXPECT_EQ(record.category, Category::kGpu);
  EXPECT_EQ(record.gpu_slots, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(record.ttr_hours, 20.5);
  EXPECT_EQ(record.time, parse_time("2012-06-01 10:00:00").value());
  EXPECT_EQ(record.root_locus, "board");
}

TEST(ReadLog, RowShorterThanARequiredColumn) {
  const std::string csv = "machine,timestamp,gpu_slots,node,category,ttr_hours,root_locus\n"
                          "Tsubame-2,2012-06-01 10:00:00,0,5,GPU,20.5,\n"
                          "Tsubame-2,2012-06-02 10:00:00,0,5\n"
                          "Tsubame-2\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), 1u);
  ASSERT_EQ(report.value().row_errors.size(), 2u);
  EXPECT_EQ(report.value().row_errors[0].line_number, 3u);
  EXPECT_EQ(report.value().row_errors[0].message,
            "validation: row on line 3 has 4 fields; column 'category' is index 4");
  EXPECT_EQ(report.value().row_errors[1].line_number, 4u);
  EXPECT_EQ(report.value().row_errors[1].message,
            "validation: row on line 4 has 1 fields; column 'timestamp' is index 1");

  auto strict = read_log_csv(csv, ReadPolicy::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().kind(), ErrorKind::kValidation);
  EXPECT_EQ(strict.error().message(),
            "line 3: row on line 3 has 4 fields; column 'category' is index 4");
}

TEST(ReadLog, LastLineWithoutTrailingNewline) {
  for (const std::string eol : {"\n", "\r\n"}) {
    const std::string csv = "machine,timestamp,node,category,ttr_hours,gpu_slots,root_locus" +
                            eol + "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2," + eol +
                            "Tsubame-2,2012-06-02 11:00:00,6,PBS,2.0,,batch stuck";
    auto report = read_log_csv(csv, ReadPolicy::kStrict);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.value().log.size(), 2u);
    EXPECT_EQ(report.value().log.records()[1].root_locus, "batch stuck");
  }
}

TEST(ReadLog, RowErrorTextsAndLineNumbers) {
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-9,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-2,2012-06-01 25:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-2,2012-06-01 10:00:00,5,Alien,20.5,0,\n"
                          "Tsubame-2,2012-06-01 10:00:00,5000,GPU,20.5,0,\n"
                          "Tsubame-2,2012-06-01 10:00:00,5,CPU,20.5,0,\n"
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,1|x,\n"
                          "Tsubame-3,2018-06-01 10:00:00,5,GPU,20.5,0,\n"
                          ",,,,,,\n";
  auto report = read_log_csv(csv);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), 1u);
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {3, "not-found: unknown machine: 'Tsubame-9'"},
      {4, "validation: '2012-06-01 25:00:00': hour out of range: 25"},
      {5, "not-found: unknown failure category: 'Alien'"},
      {6, "validation: node index 5000 outside [0, 1408)"},
      {7, "validation: GPU slots listed on a non-GPU-related category 'CPU'"},
      {8, "parse: gpu_slots: not an integer: 'x'"},
      {9, "validation: mixed machines in one log file"},
      {10, "not-found: unknown machine: ''"},
  };
  ASSERT_EQ(report.value().row_errors.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(report.value().row_errors[i].line_number, expected[i].first);
    EXPECT_EQ(report.value().row_errors[i].message, expected[i].second);
  }
}

TEST(ReadLog, StructuralErrorOutranksRowAndHeaderErrors) {
  // A file that is not well-formed CSV fails as such, even when a bad row
  // or a missing column comes before the structural fault.
  const std::string bad_row_first = std::string(kHeader) +
                                    "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\n"
                                    "Tsubame-2,not-a-date,5,GPU,20.5,0,\n"
                                    "Tsubame-2,2012-06-03 10:00:00,5,GPU,20.5,0,\"open\n";
  auto strict = read_log_csv(bad_row_first, ReadPolicy::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().message(), "unterminated quoted field starting near line 4");

  const std::string missing_column = "machine,timestamp,node\nTsubame-2,2012-06-01,5\"x\n";
  auto missing = read_log_csv(missing_column);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().message(), "stray quote in field on line 2");
}

TEST(ReadLog, EqualTimestampsKeepFileOrder) {
  // Unsorted input with ties: the log is time-ordered and rows with equal
  // timestamps keep the order they had in the file.
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-01 10:00:00,3,GPU,1.0,0,\n"
                          "Tsubame-2,2012-06-01 09:00:00,1,GPU,1.0,0,\n"
                          "Tsubame-2,2012-06-01 10:00:00,4,GPU,1.0,0,\n"
                          "Tsubame-2,2012-06-01 09:00:00,2,GPU,1.0,0,\n"
                          "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0,\n";
  auto report = read_log_csv(csv, ReadPolicy::kStrict);
  ASSERT_TRUE(report.ok());
  std::vector<int> nodes;
  for (const auto& record : report.value().log.records()) nodes.push_back(record.node);
  EXPECT_EQ(nodes, (std::vector<int>{1, 2, 3, 4, 5}));

  // Already-sorted input with ties keeps its order too.
  auto again = read_log_csv(write_log_csv(report.value().log), ReadPolicy::kStrict);
  ASSERT_TRUE(again.ok());
  nodes.clear();
  for (const auto& record : again.value().log.records()) nodes.push_back(record.node);
  EXPECT_EQ(nodes, (std::vector<int>{1, 2, 3, 4, 5}));
}

void expect_same_record(const FailureRecord& got, const FailureRecord& want) {
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.node, want.node);
  EXPECT_EQ(got.category, want.category);
  EXPECT_EQ(got.ttr_hours, want.ttr_hours);  // both parsed from the same text
  EXPECT_EQ(got.gpu_slots, want.gpu_slots);
  EXPECT_EQ(got.root_locus, want.root_locus);
}

TEST(ReadLog, RowParserAgreesWithBatchReaderAndRoundTrips) {
  // Property over the testkit edge corpus plus random and calibrated logs
  // of both machines: every data line parses alone to the batch reader's
  // record, and write -> read round-trips.
  std::vector<FailureLog> logs;
  for (const Machine machine : {Machine::kTsubame2, Machine::kTsubame3}) {
    for (auto& edge : testkit::edge_case_logs(machine)) logs.push_back(std::move(edge.log));
    testkit::GenOptions options;
    options.machine = machine;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      logs.push_back(testkit::random_log(options, rng));
    }
  }
  logs.push_back(sim::generate_log(sim::tsubame2_model(), 11).value());
  logs.push_back(sim::generate_log(sim::tsubame3_model(), 12).value());

  for (const FailureLog& log : logs) {
    if (log.empty()) continue;
    const std::string text = write_log_csv(log);
    auto batch = read_log_csv(text, ReadPolicy::kStrict);
    ASSERT_TRUE(batch.ok()) << batch.error().to_string();
    const auto records = batch.value().log.records();
    ASSERT_EQ(records.size(), log.size());

    const auto lines = split(text, '\n');  // header, one line per record, ""
    ASSERT_EQ(lines.size(), records.size() + 2);
    for (std::size_t i = 0; i < records.size(); ++i) {
      auto row = parse_record_row(lines[i + 1]);
      ASSERT_TRUE(row.ok()) << lines[i + 1];
      EXPECT_EQ(row.value().first, log.machine());
      expect_same_record(row.value().second, records[i]);

      const FailureRecord& original = log.records()[i];
      EXPECT_EQ(records[i].time, original.time);
      EXPECT_EQ(records[i].node, original.node);
      EXPECT_EQ(records[i].category, original.category);
      EXPECT_NEAR(records[i].ttr_hours, original.ttr_hours, 5e-5);
      EXPECT_EQ(records[i].gpu_slots, original.gpu_slots);
      EXPECT_EQ(records[i].root_locus, trim(original.root_locus));
    }
    // After one pass through the reader the text is a fixed point.
    const std::string canonical = write_log_csv(batch.value().log);
    auto reread = read_log_csv(canonical, ReadPolicy::kStrict);
    ASSERT_TRUE(reread.ok());
    EXPECT_EQ(write_log_csv(reread.value().log), canonical);
  }
}

TEST(RecordRow, OneLineWithOrWithoutItsLineBreak) {
  const std::string row = "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2,\"a, \"\"b\"\"\"";
  for (const std::string line_break : {"", "\n", "\r", "\r\n"}) {
    auto parsed = parse_record_row(row + line_break);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    EXPECT_EQ(parsed.value().first, Machine::kTsubame2);
    EXPECT_EQ(parsed.value().second.gpu_slots, (std::vector<int>{0, 2}));
    EXPECT_EQ(parsed.value().second.root_locus, "a, \"b\"");
  }
  auto two_lines = parse_record_row(row + "\n" + row);
  ASSERT_FALSE(two_lines.ok());
  EXPECT_EQ(two_lines.error().kind(), ErrorKind::kParse);

  auto short_row = parse_record_row("Tsubame-2,2012-06-01 10:00:00");
  ASSERT_FALSE(short_row.ok());
  EXPECT_EQ(short_row.error().message(), "expected 7 fields, got 2");
  auto empty = parse_record_row("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().message(), "expected 7 fields, got 1");
  EXPECT_FALSE(parse_record_row("Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0,\"open").ok());
}

TEST(ReadLog, TracedAsOneSpanWithACreateChildAndRowCounters) {
  obs::reset_trace();
  obs::reset_metrics();
  obs::set_enabled(true);
  const std::string csv = std::string(kHeader) +
                          "Tsubame-2,2012-06-02 10:00:00,5,GPU,20.5,0,\n"
                          "Tsubame-2,not-a-date,5,GPU,20.5,0,\n"
                          "Tsubame-2,2012-06-01 10:00:00,6,PBS,1.0,,\n";
  auto report = read_log_csv(csv);
  const obs::TraceSnapshot trace = obs::collect_trace();
  const obs::MetricsSnapshot metrics = obs::collect_metrics();
  obs::set_enabled(false);
  obs::reset_trace();
  obs::reset_metrics();

  ASSERT_TRUE(report.ok());
  // One span per call, never per row: the read and the create inside it.
  std::vector<obs::Span> spans;
  for (const auto& thread : trace.threads)
    spans.insert(spans.end(), thread.spans.begin(), thread.spans.end());
  ASSERT_EQ(spans.size(), 2u);
  const auto named = [&](std::string_view name) {
    for (const auto& span : spans)
      if (name == span.name) return span;
    ADD_FAILURE() << "no span " << name;
    return obs::Span{};
  };
  const obs::Span read = named("csv.read");
  const obs::Span create = named("csv.to_log");
  EXPECT_LE(read.start_ns, create.start_ns);
  EXPECT_GE(read.end_ns, create.end_ns);
  ASSERT_NE(metrics.find_counter("csv.rows"), nullptr);
  EXPECT_EQ(metrics.find_counter("csv.rows")->value, 3u);
  ASSERT_NE(metrics.find_counter("csv.rows_rejected"), nullptr);
  EXPECT_EQ(metrics.find_counter("csv.rows_rejected")->value, 1u);
}

TEST(WriteLog, CanonicalFormat) {
  FailureRecord r;
  r.time = parse_time("2012-06-01 10:00:00").value();
  r.node = 5;
  r.category = Category::kGpu;
  r.ttr_hours = 20.5;
  r.gpu_slots = {0, 2};
  auto log = FailureLog::create(tsubame2_spec(), {r});
  ASSERT_TRUE(log.ok());
  const std::string csv = write_log_csv(log.value());
  EXPECT_NE(csv.find("Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5000,0|2,"), std::string::npos);
}

TEST(RoundTrip, GeneratedTsubame2LogSurvivesExactly) {
  auto log = sim::generate_log(sim::tsubame2_model(), 7).value();
  auto report = read_log_csv(write_log_csv(log), ReadPolicy::kStrict);
  ASSERT_TRUE(report.ok());
  const auto& back = report.value().log;
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(back.records()[i].time, log.records()[i].time);
    EXPECT_EQ(back.records()[i].node, log.records()[i].node);
    EXPECT_EQ(back.records()[i].category, log.records()[i].category);
    EXPECT_NEAR(back.records()[i].ttr_hours, log.records()[i].ttr_hours, 5e-5);
    EXPECT_EQ(back.records()[i].gpu_slots, log.records()[i].gpu_slots);
    EXPECT_EQ(back.records()[i].root_locus, log.records()[i].root_locus);
  }
}

TEST(RoundTrip, GeneratedTsubame3LogSurvivesExactly) {
  auto log = sim::generate_log(sim::tsubame3_model(), 8).value();
  auto report = read_log_csv(write_log_csv(log), ReadPolicy::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), log.size());
  EXPECT_EQ(report.value().log.machine(), Machine::kTsubame3);
}

TEST(LogFile, WriteReadFile) {
  const std::string path = ::testing::TempDir() + "/tsufail_log_io_test.csv";
  auto log = sim::generate_log(sim::tsubame3_model(), 9).value();
  ASSERT_TRUE(write_log_file(path, log).ok());
  auto report = read_log_file(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().log.size(), log.size());
  std::remove(path.c_str());
}

TEST(LogFile, MissingFileIsIoError) {
  auto report = read_log_file("/definitely/not/here.csv");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().kind(), ErrorKind::kIo);
}

}  // namespace
}  // namespace tsufail::data
