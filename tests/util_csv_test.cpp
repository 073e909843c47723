#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/rng.h"

namespace tsufail {
namespace {

TEST(CsvParse, SimpleDocument) {
  auto doc = CsvDocument::parse("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc.value().records().size(), 2u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(doc.value().records()[1].fields, (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvParse, NoTrailingNewline) {
  auto doc = CsvDocument::parse("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields[1], "2");
}

TEST(CsvParse, CrLfLineEndings) {
  auto doc = CsvDocument::parse("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, CrLfWithQuotedFields) {
  // CRLF terminators must not leak a stray '\r' into the last field,
  // with or without quoting around it.
  auto doc = CsvDocument::parse("a,b\r\n1,\"x,y\"\r\n2,plain\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 2u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "x,y"}));
  EXPECT_EQ(doc.value().records()[1].fields, (std::vector<std::string>{"2", "plain"}));
}

TEST(CsvParse, CrLfNoTrailingNewline) {
  auto doc = CsvDocument::parse("a,b\r\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, Utf8BomStripped) {
  // Spreadsheet exports prepend a UTF-8 BOM; it must not glue itself to
  // the first header name.
  auto doc = CsvDocument::parse("\xEF\xBB\xBF" "a,b\n1,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(doc.value().column("a").ok());
}

TEST(CsvParse, Utf8BomWithCrLf) {
  auto doc = CsvDocument::parse("\xEF\xBB\xBF" "a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, BomOnlyInsideDocumentIsData) {
  // Only a leading BOM is stripped; the same bytes later in the file are
  // honest field content.
  auto doc = CsvDocument::parse("a,b\n\xEF\xBB\xBF" "x,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "\xEF\xBB\xBF" "x");
}

TEST(CsvParse, QuotedFieldWithComma) {
  auto doc = CsvDocument::parse("a,b\n\"x,y\",2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "x,y");
}

TEST(CsvParse, QuotedFieldWithEscapedQuote) {
  auto doc = CsvDocument::parse("a\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "say \"hi\"");
}

TEST(CsvParse, QuotedFieldWithEmbeddedNewline) {
  auto doc = CsvDocument::parse("a,b\n\"line1\nline2\",2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "line1\nline2");
}

TEST(CsvParse, EmptyFieldsPreserved) {
  auto doc = CsvDocument::parse("a,b,c\n,,\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"", "", ""}));
}

TEST(CsvParse, BlankLinesSkipped) {
  auto doc = CsvDocument::parse("a,b\n\n1,2\n\n\n3,4\n\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records().size(), 2u);
}

TEST(CsvParse, LineNumbersTracked) {
  auto doc = CsvDocument::parse("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].line_number, 2u);
  EXPECT_EQ(doc.value().records()[1].line_number, 3u);
}

TEST(CsvParse, UnterminatedQuoteIsError) {
  auto doc = CsvDocument::parse("a\n\"oops\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().kind(), ErrorKind::kParse);
}

TEST(CsvParse, StrayQuoteIsError) {
  auto doc = CsvDocument::parse("a\nfoo\"bar\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().kind(), ErrorKind::kParse);
}

TEST(CsvParse, EmptyDocumentIsError) {
  EXPECT_FALSE(CsvDocument::parse("").ok());
  EXPECT_FALSE(CsvDocument::parse("\n\n").ok());
}

TEST(CsvColumns, CaseInsensitiveLookup) {
  auto doc = CsvDocument::parse("Timestamp,Node\n1,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().column("timestamp").value(), 0u);
  EXPECT_EQ(doc.value().column("NODE").value(), 1u);
  EXPECT_FALSE(doc.value().column("missing").ok());
}

TEST(CsvColumns, FieldAccessor) {
  auto doc = CsvDocument::parse("a,b\n1,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().field(doc.value().records()[0], "b").value(), "2");
}

TEST(CsvColumns, ShortRowReportsRowAndColumn) {
  auto doc = CsvDocument::parse("a,b,c\n1,2,3\n");
  ASSERT_TRUE(doc.ok());
  CsvRecord short_row{{"only"}, 5};
  auto field = doc.value().field(short_row, "c");
  ASSERT_FALSE(field.ok());
  EXPECT_NE(field.error().message().find("line 5"), std::string::npos);
  EXPECT_NE(field.error().message().find("'c'"), std::string::npos);
}

TEST(CsvWriter, EscapesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b,c"});
  writer.write_row({"1", "2"});
  EXPECT_EQ(out.str(), "a,\"b,c\"\n1,2\n");
}

TEST(CsvFile, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/tsufail_csv_test.csv";
  ASSERT_TRUE(write_csv_file(path, {"x", "y"}, {{"1", "hello, world"}, {"2", "line\nbreak"}}).ok());
  auto doc = CsvDocument::read_file(path);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[1], "hello, world");
  EXPECT_EQ(doc.value().records()[1].fields[1], "line\nbreak");
  std::remove(path.c_str());
}

TEST(CsvFile, MissingFileIsIoError) {
  auto doc = CsvDocument::read_file("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().kind(), ErrorKind::kIo);
}

// --- CsvTokenizer: the streaming reader under CsvDocument ----------------

/// Every record of `text` as owned strings (blank records included).
std::vector<std::vector<std::string>> tokenize_all(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  CsvTokenizer tokenizer(text);
  while (!tokenizer.at_end()) {
    auto record = tokenizer.next_record();
    EXPECT_TRUE(record.ok());
    if (!record.ok()) break;
    rows.emplace_back(record.value().fields.begin(), record.value().fields.end());
  }
  return rows;
}

TEST(CsvTokenizer, PlainAndQuotedFieldsViewTheInput) {
  const std::string text = "a,\"b,c\",d\n";
  CsvTokenizer tokenizer(text);
  auto record = tokenizer.next_record();
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record.value().fields.size(), 3u);
  EXPECT_EQ(record.value().fields[1], "b,c");
  for (const std::string_view field : record.value().fields) {
    EXPECT_GE(field.data(), text.data());
    EXPECT_LE(field.data() + field.size(), text.data() + text.size());
  }
  EXPECT_TRUE(tokenizer.at_end());
}

TEST(CsvTokenizer, EscapedFieldsOfOneRecordStayValidTogether) {
  auto rows = tokenize_all("\"a\"\"1\",\"b\"\"2\",\"c\"x,\"\"\"\"\n\"e\"\"5\"\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a\"1", "b\"2", "cx", "\""}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"e\"5"}));
}

TEST(CsvTokenizer, FieldsSpanningScanBlocks) {
  // Fields longer than the 64-byte scan block, delimiters right at block
  // edges, and a quoted field whose commas and newlines cross blocks.
  const std::string long_a(150, 'a');
  const std::string long_b(63, 'b');
  std::string quoted;
  for (int i = 0; i < 40; ++i) quoted += "x,y\n";
  const std::string text = long_a + "," + long_b + ",\"" + quoted + "\"\n" + long_b + "\n";
  auto rows = tokenize_all(text);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{long_a, long_b, quoted}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{long_b}));

  CsvTokenizer tokenizer(text);
  EXPECT_EQ(tokenizer.next_record().value().line_number, 1u);
  EXPECT_EQ(tokenizer.next_record().value().line_number, 42u);
}

TEST(CsvTokenizer, LineBreaksOfEveryKindCountOnce) {
  CsvTokenizer tokenizer("a\rb\r\nc\n\"d\r\ne\"\nf");
  std::vector<std::size_t> lines;
  while (!tokenizer.at_end()) lines.push_back(tokenizer.next_record().value().line_number);
  EXPECT_EQ(lines, (std::vector<std::size_t>{1, 2, 3, 4, 6}));
}

TEST(CsvTokenizer, EndOfTextReadsOneEmptyField) {
  CsvTokenizer tokenizer("");
  ASSERT_TRUE(tokenizer.at_end());
  auto record = tokenizer.next_record();
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().fields.size(), 1u);
  EXPECT_TRUE(record.value().blank());
}

TEST(CsvTokenizer, BlankRecords) {
  for (const std::string text : {"\n", "   \n", "\t\r\n", "\"\"\n", "\" \"\n"}) {
    CsvTokenizer tokenizer(text);
    EXPECT_TRUE(tokenizer.next_record().value().blank()) << text;
  }
  for (const std::string text : {",\n", "x\n", "\"x\"\n"}) {
    CsvTokenizer tokenizer(text);
    EXPECT_FALSE(tokenizer.next_record().value().blank()) << text;
  }
}

TEST(CsvTokenizer, StructuralErrorsNameTheirLine) {
  CsvTokenizer stray("a\nb\nfoo\"bar\n");
  ASSERT_TRUE(stray.next_record().ok());
  ASSERT_TRUE(stray.next_record().ok());
  auto bad = stray.next_record();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message(), "stray quote in field on line 3");

  CsvTokenizer open("a\n\"x\ny");
  ASSERT_TRUE(open.next_record().ok());
  auto unterminated = open.next_record();
  ASSERT_FALSE(unterminated.ok());
  EXPECT_EQ(unterminated.error().message(), "unterminated quoted field starting near line 2");

  CsvTokenizer after_close("\"ab\"c\"d\n");
  EXPECT_FALSE(after_close.next_record().ok());
}

TEST(CsvRecordView, FieldReportsShortRows) {
  const std::vector<std::string_view> fields{"x", "y"};
  const CsvRecordView row{fields, 7};
  EXPECT_EQ(row.field(1, "b").value(), "y");
  auto missing = row.field(4, "e");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().kind(), ErrorKind::kValidation);
  EXPECT_EQ(missing.error().message(), "row on line 7 has 2 fields; column 'e' is index 4");
}

TEST(CsvColumns, FindColumnTrimsFoldsCaseAndTakesTheFirstMatch) {
  const std::vector<std::string_view> header{"id", " Node ", "NODE", "x"};
  EXPECT_EQ(find_column(header, "node").value(), 1u);
  EXPECT_EQ(find_column(header, " X").value(), 3u);
  auto missing = find_column(header, "rack");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().kind(), ErrorKind::kNotFound);
}

TEST(CsvFile, ReadTextFileReturnsTheBytes) {
  const std::string path = ::testing::TempDir() + "/tsufail_read_text_test.bin";
  std::string bytes(200000, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 31 % 251);
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  auto text = read_text_file(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), bytes);
  std::remove(path.c_str());

  auto missing = read_text_file("/nonexistent/definitely/missing.csv", "log file");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().kind(), ErrorKind::kIo);
  EXPECT_EQ(missing.error().message(),
            "cannot open log file: /nonexistent/definitely/missing.csv");
}

// Property sweep: random documents survive a write -> parse round trip.
class CsvRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvRoundTrip, RandomDocumentsRoundTrip) {
  Rng rng(GetParam());
  const auto random_field = [&] {
    static constexpr char kAlphabet[] = "ab ,\"\n'x0;|";
    std::string field;
    const auto len = rng.uniform_index(8);
    for (std::uint64_t i = 0; i < len; ++i)
      field += kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)];
    return field;
  };

  const std::size_t cols = 1 + rng.uniform_index(5);
  std::vector<std::string> header;
  for (std::size_t c = 0; c < cols; ++c) header.push_back("col" + std::to_string(c));
  std::vector<std::vector<std::string>> rows(1 + rng.uniform_index(20));
  for (auto& row : rows) {
    row.resize(cols);
    for (auto& cell : row) cell = random_field();
  }

  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row(header);
  for (const auto& row : rows) writer.write_row(row);

  auto doc = CsvDocument::parse(out.str());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), header);
  // Single-column rows whose content is all whitespace parse as blank
  // records and are skipped by design; compare against the survivors.
  std::vector<std::vector<std::string>> expected;
  for (const auto& row : rows) {
    const bool blankish =
        cols == 1 && row[0].find_first_not_of(" \t\r\n") == std::string::npos;
    if (!blankish) expected.push_back(row);
  }
  ASSERT_EQ(doc.value().records().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(doc.value().records()[i].fields, expected[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace tsufail
