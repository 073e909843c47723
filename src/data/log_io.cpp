#include "data/log_io.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/csv.h"
#include "util/simd.h"
#include "util/strings.h"

namespace tsufail::data {
namespace {

/// The canonical columns, in the order write_log_csv emits them.
enum Column : std::size_t {
  kMachine, kTimestamp, kNode, kCategory, kTtrHours, kGpuSlots, kRootLocus, kColumnCount
};
constexpr std::array<std::string_view, kColumnCount> kColumns = {
    "machine", "timestamp", "node", "category", "ttr_hours", "gpu_slots", "root_locus"};

/// Where each canonical column sits within a row.
using ColumnMap = std::array<std::size_t, kColumnCount>;

/// The headerless canonical row: every column at its own position.
constexpr ColumnMap kCanonicalColumns = {0, 1, 2, 3, 4, 5, 6};

/// Parses one record's fields in place, in column order, stopping at the
/// first field that is missing or malformed.  The one field parser behind
/// both the header-driven document reader and the headerless single-row
/// parser; it also reports the machine declared on the row so the caller
/// can enforce uniformity.
Result<std::pair<Machine, FailureRecord>> parse_record_fields(const CsvRecordView& row,
                                                              const ColumnMap& columns) {
  // Column `c`'s text, or nullptr when the row is too short to hold it.
  const auto field = [&](Column c) -> const std::string_view* {
    return columns[c] < row.fields.size() ? &row.fields[columns[c]] : nullptr;
  };
  const auto missing = [&](Column c) { return row.field(columns[c], kColumns[c]).error(); };

  const std::string_view* machine_text = field(kMachine);
  if (machine_text == nullptr) return missing(kMachine);
  auto machine = parse_machine(*machine_text);
  if (!machine.ok()) return machine.error();

  FailureRecord record;

  const std::string_view* time_text = field(kTimestamp);
  if (time_text == nullptr) return missing(kTimestamp);
  auto time = parse_time(trim(*time_text));
  if (!time.ok()) return time.error();
  record.time = time.value();

  const std::string_view* node_text = field(kNode);
  if (node_text == nullptr) return missing(kNode);
  auto node = parse_int32(trim(*node_text));
  if (!node.ok()) return node.error().with_context("node");
  record.node = node.value();

  const std::string_view* category_text = field(kCategory);
  if (category_text == nullptr) return missing(kCategory);
  auto category = parse_category(*category_text);
  if (!category.ok()) return category.error();
  record.category = category.value();

  const std::string_view* ttr_text = field(kTtrHours);
  if (ttr_text == nullptr) return missing(kTtrHours);
  auto ttr = parse_double(trim(*ttr_text));
  if (!ttr.ok()) return ttr.error().with_context("ttr_hours");
  record.ttr_hours = ttr.value();

  const std::string_view* slots_text = field(kGpuSlots);
  if (slots_text == nullptr) return missing(kGpuSlots);
  auto slots = parse_gpu_slots(*slots_text);
  if (!slots.ok()) return slots.error();
  record.gpu_slots = std::move(slots.value());

  const std::string_view* locus = field(kRootLocus);
  if (locus == nullptr) return missing(kRootLocus);
  record.root_locus = std::string(trim(*locus));

  return std::pair<Machine, FailureRecord>(machine.value(), std::move(record));
}

/// `error`, unless the text after the tokenizer's position is not
/// well-formed CSV: a file that is not CSV fails as such, whatever header
/// or row error comes before the structural fault.
Error outranked_by_structure(CsvTokenizer& tokenizer, Error error) {
  while (!tokenizer.at_end()) {
    auto record = tokenizer.next_record();
    if (!record.ok()) return record.error();
  }
  return error;
}

std::string format_ttr(double ttr_hours) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", ttr_hours);
  return buf;
}

}  // namespace

Result<std::pair<Machine, FailureRecord>> parse_record_row(std::string_view row) {
  CsvTokenizer tokenizer(row);
  auto record = tokenizer.next_record();
  if (!record.ok()) return record.error();
  if (!tokenizer.at_end())
    return Error(ErrorKind::kParse, "line break outside quotes inside one row");
  if (record.value().fields.size() != kColumnCount)
    return Error(ErrorKind::kParse, "expected " + std::to_string(kColumnCount) +
                                        " fields, got " +
                                        std::to_string(record.value().fields.size()));
  return parse_record_fields(record.value(), kCanonicalColumns);
}

std::string format_gpu_slots(const std::vector<int>& slots) {
  std::string out;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i != 0) out += '|';
    out += std::to_string(slots[i]);
  }
  return out;
}

Result<std::vector<int>> parse_gpu_slots(std::string_view text) {
  std::vector<int> slots;
  text = trim(text);
  if (text.empty()) return slots;
  slots.reserve(static_cast<std::size_t>(std::count(text.begin(), text.end(), '|')) + 1);
  for (std::size_t start = 0;;) {
    const std::size_t bar = text.find('|', start);
    auto value = parse_int32(trim(text.substr(start, bar - start)));
    if (!value.ok()) return value.error().with_context("gpu_slots");
    slots.push_back(value.value());
    if (bar == std::string_view::npos) return slots;
    start = bar + 1;
  }
}

Result<ReadReport> read_log_csv(std::string_view text, ReadPolicy policy) {
  OBS_SPAN("csv.read");
  static obs::Counter rows_read = obs::counter("csv.rows");
  static obs::Counter rows_rejected = obs::counter("csv.rows_rejected");

  CsvTokenizer tokenizer(text);
  ColumnMap columns{};
  bool have_header = false;
  std::vector<FailureRecord> records;
  // At most one row per line break: the header's ends the first line.
  records.reserve(simd::count_byte(text, '\n'));
  std::vector<RowError> row_errors;
  std::optional<Machine> machine;
  std::size_t rows = 0;

  const auto load_row = [&](const CsvRecordView& row) -> Result<void> {
    auto parsed = parse_record_fields(row, columns);
    if (!parsed.ok()) return parsed.error();
    auto& [row_machine, record] = parsed.value();
    if (!machine.has_value()) {
      machine = row_machine;
    } else if (*machine != row_machine) {
      return Error(ErrorKind::kValidation, "mixed machines in one log file");
    }
    // Semantic validation per row (the only one), so one bad record is
    // skippable under the lenient policy instead of poisoning the whole
    // load.  Generated/operator logs can record repairs finishing past
    // the window, so it allows two weeks of slack.
    if (auto valid = validate_record(record, spec_for(row_machine), /*slack_hours=*/24.0 * 14);
        !valid.ok())
      return valid.error();
    records.push_back(std::move(record));
    return {};
  };

  while (!tokenizer.at_end()) {
    auto next = tokenizer.next_record();
    if (!next.ok()) return next.error();
    const CsvRecordView& row = next.value();
    if (row.blank()) continue;  // blank lines anywhere
    if (!have_header) {
      for (std::size_t c = 0; c < kColumnCount; ++c) {
        auto index = find_column(row.fields, kColumns[c]);
        if (!index.ok())
          return outranked_by_structure(
              tokenizer, Error(ErrorKind::kValidation, "log CSV is missing required column '" +
                                                           std::string(kColumns[c]) + "'"));
        columns[c] = index.value();
      }
      have_header = true;
      continue;
    }
    ++rows;
    auto loaded = load_row(row);
    if (loaded.ok()) continue;
    if (policy == ReadPolicy::kStrict)
      return outranked_by_structure(
          tokenizer, loaded.error().with_context("line " + std::to_string(row.line_number)));
    row_errors.push_back({row.line_number, loaded.error().to_string()});
  }
  rows_read.add(rows);
  rows_rejected.add(row_errors.size());

  if (!have_header) return Error(ErrorKind::kParse, "CSV document is empty (no header row)");
  if (!machine.has_value())
    return Error(ErrorKind::kValidation, "log CSV contains no parsable data rows");

  // Every kept row was validated as it loaded: sort the records stably
  // by time only if they need it, as create() would, and adopt them.
  auto log = [&] {
    OBS_SPAN("csv.to_log");
    if (!std::ranges::is_sorted(records, {}, &FailureRecord::time))
      std::ranges::stable_sort(records, {}, &FailureRecord::time);
    return FailureLog::from_sorted(spec_for(*machine), std::move(records));
  }();
  return ReadReport{std::move(log), std::move(row_errors)};
}

Result<ReadReport> read_log_file(const std::string& path, ReadPolicy policy) {
  auto text = [&path] {
    OBS_SPAN("file.read");
    return read_text_file(path, "log file");
  }();
  if (!text.ok()) return text.error();
  auto report = read_log_csv(text.value(), policy);
  if (!report.ok()) return report.error().with_context(path);
  return report;
}

std::string write_log_csv(const FailureLog& log) {
  std::ostringstream out;
  CsvWriter writer(out);
  std::vector<std::string> row(std::begin(kColumns), std::end(kColumns));
  writer.write_row(row);
  const std::string machine_name(to_string(log.machine()));
  for (const auto& record : log.records()) {
    row[0] = machine_name;
    row[1] = format_time(record.time);
    row[2] = std::to_string(record.node);
    row[3] = std::string(to_string(record.category));
    row[4] = format_ttr(record.ttr_hours);
    row[5] = format_gpu_slots(record.gpu_slots);
    row[6] = record.root_locus;
    writer.write_row(row);
  }
  return out.str();
}

Result<void> write_log_file(const std::string& path, const FailureLog& log) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    return Error(ErrorKind::kIo, "cannot open log file for writing: " + path);
  out << write_log_csv(log);
  out.flush();
  if (!out)
    return Error(ErrorKind::kIo, "write error on log file: " + path);
  return {};
}

}  // namespace tsufail::data
