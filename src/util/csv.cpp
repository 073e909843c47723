#include "util/csv.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "util/simd.h"
#include "util/strings.h"

namespace tsufail {
namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

Error unterminated_quote(std::size_t record_line) {
  return Error(ErrorKind::kParse,
               "unterminated quoted field starting near line " + std::to_string(record_line));
}

Error stray_quote(std::size_t line) {
  return Error(ErrorKind::kParse, "stray quote in field on line " + std::to_string(line));
}

}  // namespace

bool CsvRecordView::blank() const noexcept {
  return fields.size() == 1 && trim(fields[0]).empty();
}

Result<std::string_view> CsvRecordView::field(std::size_t index,
                                              std::string_view column_name) const {
  if (index < fields.size()) return fields[index];
  return Error(ErrorKind::kValidation,
               "row on line " + std::to_string(line_number) + " has " +
                   std::to_string(fields.size()) + " fields; column '" +
                   std::string(column_name) + "' is index " + std::to_string(index));
}

CsvTokenizer::CsvTokenizer(std::string_view text) noexcept : text_(text) {
  // Spreadsheet exports routinely prepend a UTF-8 byte-order mark; left
  // in place it would glue itself onto the first header name and break
  // column lookup.
  if (text_.substr(0, kUtf8Bom.size()) == kUtf8Bom) text_.remove_prefix(kUtf8Bom.size());
}

Result<CsvRecordView> CsvTokenizer::next_record() {
  fields_.clear();
  buffers_used_ = 0;
  const std::size_t record_line = line_;
  while (true) {
    if (!at_end() && text_[pos_] == '"') {
      if (auto quoted = quoted_field(record_line); !quoted.ok()) return quoted.error();
    } else {
      const std::size_t end = next_structural(pos_);
      if (end != text_.size() && text_[end] == '"') return stray_quote(line_);
      fields_.push_back(text_.substr(pos_, end - pos_));
      pos_ = end;
    }
    // pos_ is on the delimiter or line break that ends the field, or at
    // the end of the text.
    if (at_end()) return CsvRecordView{fields_, record_line};
    const char terminator = text_[pos_++];
    if (terminator == ',') continue;
    if (terminator == '\r' && !at_end() && text_[pos_] == '\n') ++pos_;
    ++line_;
    return CsvRecordView{fields_, record_line};
  }
}

Result<void> CsvTokenizer::quoted_field(std::size_t record_line) {
  std::size_t start = ++pos_;  // first byte after the opening quote
  std::string* unescaped = nullptr;
  std::size_t close = 0;
  while (true) {
    // Inside quotes only '"' and '\n' matter (the latter for line
    // accounting); everything else is field content.
    std::size_t hit = next_structural(pos_);
    while (hit != text_.size() && (text_[hit] == ',' || text_[hit] == '\r'))
      hit = next_structural(hit + 1);
    if (hit == text_.size()) {
      pos_ = text_.size();
      return unterminated_quote(record_line);
    }
    pos_ = hit + 1;
    if (text_[hit] == '\n') {  // a line break inside quotes stays in the value
      ++line_;
      continue;
    }
    if (at_end() || text_[pos_] != '"') {
      close = hit;
      break;
    }
    // A doubled quote stands for one: copy through it, skip its twin.
    if (unescaped == nullptr) unescaped = &take_buffer();
    unescaped->append(text_, start, pos_ - start);
    start = ++pos_;
  }
  // Bytes after the closing quote, up to the delimiter, join the value.
  const std::size_t end = next_structural(pos_);
  if (end != text_.size() && text_[end] == '"') return stray_quote(line_);
  const std::string_view last = text_.substr(start, close - start);
  const std::string_view tail = text_.substr(pos_, end - pos_);
  pos_ = end;
  if (unescaped == nullptr && tail.empty()) {
    fields_.push_back(last);
    return {};
  }
  if (unescaped == nullptr) unescaped = &take_buffer();
  unescaped->append(last).append(tail);
  fields_.push_back(*unescaped);
  return {};
}

std::size_t CsvTokenizer::next_structural(std::size_t from) noexcept {
  while (from < text_.size()) {
    if (from >= block_end_) {
      block_ = from;
      block_end_ = std::min(text_.size(), from + 64);
      mask_ = simd::mask_any_of4(text_.substr(block_, block_end_ - block_), ',', '\r', '\n', '"');
    }
    const std::uint64_t ahead = mask_ >> (from - block_);
    if (ahead != 0) return from + static_cast<std::size_t>(std::countr_zero(ahead));
    from = block_end_;
  }
  return text_.size();
}

std::string& CsvTokenizer::take_buffer() {
  if (buffers_used_ == buffers_.size()) buffers_.emplace_back();
  std::string& buffer = buffers_[buffers_used_++];
  buffer.clear();
  return buffer;
}

Result<CsvDocument> CsvDocument::parse(std::string_view text) {
  CsvTokenizer tokenizer(text);
  CsvDocument doc;
  // At most one row per line break: the header's ends the first line.
  doc.records_.reserve(simd::count_byte(text, '\n'));
  bool have_header = false;
  while (!tokenizer.at_end()) {
    auto record = tokenizer.next_record();
    if (!record.ok()) return record.error();
    const CsvRecordView& row = record.value();
    if (row.blank()) continue;  // skip blank lines anywhere
    std::vector<std::string> fields(row.fields.begin(), row.fields.end());
    if (!have_header) {
      doc.header_ = std::move(fields);
      have_header = true;
    } else {
      doc.records_.push_back({std::move(fields), row.line_number});
    }
  }
  if (!have_header)
    return Error(ErrorKind::kParse, "CSV document is empty (no header row)");
  return doc;
}

Result<CsvDocument> CsvDocument::read_file(const std::string& path) {
  auto text = read_text_file(path);
  if (!text.ok()) return text.error();
  auto doc = parse(text.value());
  if (!doc.ok()) return doc.error().with_context(path);
  return doc;
}

Result<std::size_t> CsvDocument::column(std::string_view name) const {
  const std::vector<std::string_view> names(header_.begin(), header_.end());
  return find_column(names, name);
}

Result<std::string> CsvDocument::field(const CsvRecord& record, std::string_view column_name) const {
  auto index = column(column_name);
  if (!index.ok()) return index.error();
  const std::vector<std::string_view> fields(record.fields.begin(), record.fields.end());
  auto value = CsvRecordView{fields, record.line_number}.field(index.value(), column_name);
  if (!value.ok()) return value.error();
  return std::string(value.value());
}

Result<std::size_t> find_column(std::span<const std::string_view> header, std::string_view name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (iequals(trim(header[i]), trim(name))) return i;
  }
  return Error(ErrorKind::kNotFound, "no such column: '" + std::string(name) + "'");
}

Result<std::string> read_text_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Error(ErrorKind::kIo, "cannot open " + std::string(what) + ": " + path);
  std::string text;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) {
    text.resize(size);
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<std::size_t>(in.gcount()));
  }
  // Inputs without a size (pipes), or a file that grew meanwhile.
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  if (in.bad())
    return Error(ErrorKind::kIo, "read error on " + std::string(what) + ": " + path);
  return text;
}

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

Result<void> write_csv_file(const std::string& path, const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    return Error(ErrorKind::kIo, "cannot open file for writing: " + path);
  CsvWriter writer(out);
  writer.write_row(header);
  for (const auto& row : rows) writer.write_row(row);
  out.flush();
  if (!out)
    return Error(ErrorKind::kIo, "write error on file: " + path);
  return {};
}

}  // namespace tsufail
