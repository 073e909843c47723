// RFC-4180 CSV reading and writing.
//
// Failure logs are exchanged as CSV (the Zenodo artifact format).  The
// reader is tolerant of the realities of operator-maintained spreadsheets:
// a UTF-8 byte-order mark, CRLF and LF line endings, quoted fields with
// embedded commas/newlines, and blank lines.  Structural problems are
// reported per record via Result so one bad row cannot poison a 900-row
// log.
//
// CsvTokenizer is the one reader: it streams records whose fields are
// views into the input text.  CsvDocument (every field copied out as a
// string) and the failure-log reader (data/log_io.h, which parses the
// views in place) are both loops over it.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace tsufail {

/// One record streamed by CsvTokenizer.  Each field views the tokenizer's
/// input text, or the tokenizer's own buffer for a quoted field that had
/// to be unescaped (doubled quotes, bytes after the closing quote); both
/// stay valid until the next call to CsvTokenizer::next_record.
struct CsvRecordView {
  std::span<const std::string_view> fields;
  std::size_t line_number = 0;  ///< 1-based line the record starts on

  /// True for a blank line: one field holding only whitespace.  Readers
  /// skip blank records wherever they occur.
  bool blank() const noexcept;

  /// Field `index`, or an error naming the row and `column_name` when the
  /// record is too short to hold it.
  Result<std::string_view> field(std::size_t index, std::string_view column_name) const;
};

/// Incremental RFC-4180 tokenizer over a whole text.
///
/// Structural characters (delimiter, CR, LF, quote) are located 64 bytes
/// at a time with the SIMD block mask (util/simd.h), and the ordinary
/// bytes between them are never copied: the state machine steps once per
/// structural character, and a field is a view of the bytes it spans.  A
/// leading UTF-8 byte-order mark is skipped.
class CsvTokenizer {
 public:
  /// `text` must outlive the tokenizer and every record it yields.
  explicit CsvTokenizer(std::string_view text) noexcept;

  bool at_end() const noexcept { return pos_ >= text_.size(); }

  /// Reads one record (one logical row; a quoted field may span physical
  /// lines).  At the end of the text it reads one empty field, as for an
  /// empty line.
  /// Errors: unterminated quote, stray quote in an unquoted field.
  Result<CsvRecordView> next_record();

 private:
  /// Reads the quoted field opening at pos_; appends it to fields_.
  Result<void> quoted_field(std::size_t record_line);
  /// An empty buffer for one unescaped field of the current record.
  std::string& take_buffer();
  /// Offset of the first delimiter, CR, LF or quote at or after `from`
  /// (never before an earlier call's `from`), or the text's size.
  std::size_t next_structural(std::size_t from) noexcept;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  /// The 64-byte block [block_, block_end_) last scanned, and its mask of
  /// structural bytes.
  std::size_t block_ = 0;
  std::size_t block_end_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<std::string_view> fields_;
  /// Unescaped fields of the current record.  A deque never relocates
  /// its elements, so views of earlier buffers survive later ones.
  std::deque<std::string> buffers_;
  std::size_t buffers_used_ = 0;
};

/// One parsed CSV record (row) with its 1-based source line number.
struct CsvRecord {
  std::vector<std::string> fields;
  std::size_t line_number = 0;
};

/// A fully parsed CSV document: a header row plus data records.
class CsvDocument {
 public:
  /// Parses an in-memory CSV document.  The first record is the header.
  /// Errors: empty input, unterminated quote, stray quote in unquoted field.
  static Result<CsvDocument> parse(std::string_view text);

  /// Reads and parses a CSV file from disk.
  static Result<CsvDocument> read_file(const std::string& path);

  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<CsvRecord>& records() const noexcept { return records_; }

  /// Column index for `name` (case-insensitive), or kNotFound error.
  Result<std::size_t> column(std::string_view name) const;

  /// Field `column_name` of `record`, or an error naming the row/column.
  Result<std::string> field(const CsvRecord& record, std::string_view column_name) const;

 private:
  std::vector<std::string> header_;
  std::vector<CsvRecord> records_;
};

/// Index of the header column named `name`, compared case-insensitively
/// with surrounding whitespace ignored; the first match wins.
Result<std::size_t> find_column(std::span<const std::string_view> header, std::string_view name);

/// The whole content of the file at `path`, read at once.  `what` names
/// the file in errors ("cannot open <what>: <path>").
Result<std::string> read_text_file(const std::string& path, std::string_view what = "file");

/// Streaming CSV writer with RFC-4180 quoting.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Writes one row; fields containing ',' '"' '\n' or '\r' are quoted.
  void write_row(const std::vector<std::string>& fields);

  /// Quotes a single field if needed (exposed for tests).
  static std::string escape(std::string_view field);

 private:
  std::ostream& out_;
};

/// Writes an entire document (header + rows) to a file.
Result<void> write_csv_file(const std::string& path, const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows);

}  // namespace tsufail
