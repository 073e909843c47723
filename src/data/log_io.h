// On-disk CSV schema for failure logs.
//
// Schema (header required, column order free, names case-insensitive):
//   machine     "Tsubame-2" | "Tsubame-3"   (must be uniform per file)
//   timestamp   "YYYY-MM-DD HH:MM:SS" (other formats per parse_time)
//   node        0-based integer node index
//   category    Table II name (aliases accepted per parse_category)
//   ttr_hours   non-negative decimal hours to recovery
//   gpu_slots   ""  or "|"-separated 0-based slot list, e.g. "0|2"
//   root_locus  free text; empty unless a software root locus was recorded
//
// Reading is lenient by policy choice: structurally broken rows are
// collected into `ReadReport::row_errors` and the rest of the log loads.
// A strict mode turns any row error into a load failure.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "data/log.h"
#include "util/error.h"

namespace tsufail::data {

struct RowError {
  std::size_t line_number = 0;
  std::string message;
};

struct ReadReport {
  FailureLog log;
  std::vector<RowError> row_errors;  ///< rows skipped under lenient policy
};

enum class ReadPolicy {
  kLenient,  ///< skip malformed rows, report them
  kStrict,   ///< any malformed row fails the load
};

/// Parses a CSV log document from text.
Result<ReadReport> read_log_csv(std::string_view text, ReadPolicy policy = ReadPolicy::kLenient);

/// Reads a CSV log from a file.
Result<ReadReport> read_log_file(const std::string& path,
                                 ReadPolicy policy = ReadPolicy::kLenient);

/// Serializes a log to CSV text (canonical column order and formats;
/// read_log_csv(write_log_csv(log)) round-trips exactly to the second).
std::string write_log_csv(const FailureLog& log);

/// Writes a log to a file.
Result<void> write_log_file(const std::string& path, const FailureLog& log);

/// Parses one headerless data row in the canonical column order
/// (machine,timestamp,node,category,ttr_hours,gpu_slots,root_locus) —
/// the shape write_log_csv emits row-for-row and the serve ingest
/// protocol accepts one event at a time.  The row goes through the same
/// tokenizer and field parser as read_log_csv, so it parses to the record
/// the batch reader would make of it.  It is one record: a trailing line
/// break is allowed, a second line is an error.
Result<std::pair<Machine, FailureRecord>> parse_record_row(std::string_view row);

/// Formats a slot list as the on-disk "0|2" form.
std::string format_gpu_slots(const std::vector<int>& slots);

/// Parses the "0|2" slot-list form ("" -> empty).
Result<std::vector<int>> parse_gpu_slots(std::string_view text);

}  // namespace tsufail::data
