#include "data/log.h"

#include <algorithm>

namespace tsufail::data {
namespace {

bool earlier(const FailureRecord& a, const FailureRecord& b) noexcept { return a.time < b.time; }

/// Stable-sorts `records` by time.  Input already in order (CSV written
/// by write_log_csv, sealed stream epochs) is left as it is: a stable sort
/// of sorted input changes nothing, so checking first only saves work.
void sort_by_time(std::vector<FailureRecord>& records) {
  if (!std::is_sorted(records.begin(), records.end(), earlier))
    std::stable_sort(records.begin(), records.end(), earlier);
}

}  // namespace

Result<FailureLog> FailureLog::create(MachineSpec spec, std::vector<FailureRecord> records,
                                      double slack_hours) {
  sort_by_time(records);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (auto valid = validate_record(records[i], spec, slack_hours); !valid.ok())
      return valid.error().with_context("record " + std::to_string(i));
  }
  return FailureLog(std::move(spec), std::move(records));
}

FailureLog FailureLog::from_sorted(MachineSpec spec, std::vector<FailureRecord> records) {
  TSUFAIL_REQUIRE(std::is_sorted(records.begin(), records.end(), earlier),
                  "FailureLog::from_sorted: records must be ascending by time");
  return FailureLog(std::move(spec), std::move(records));
}

Result<FailureLog> FailureLog::append(const FailureLog& base, std::vector<FailureRecord> suffix,
                                      double slack_hours) {
  sort_by_time(suffix);
  if (!base.empty() && !suffix.empty() && suffix.front().time < base.records_.back().time)
    return Error(ErrorKind::kValidation,
                 "append: suffix record predates the base log's last record");
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (auto valid = validate_record(suffix[i], base.spec_, slack_hours); !valid.ok())
      return valid.error().with_context("suffix record " + std::to_string(i));
  }
  std::vector<FailureRecord> records;
  records.reserve(base.records_.size() + suffix.size());
  records.insert(records.end(), base.records_.begin(), base.records_.end());
  records.insert(records.end(), std::make_move_iterator(suffix.begin()),
                 std::make_move_iterator(suffix.end()));
  return FailureLog(base.spec_, std::move(records));
}

std::vector<FailureRecord> FailureLog::by_category(Category category) const {
  std::vector<FailureRecord> out;
  for (const auto& record : records_) {
    if (record.category == category) out.push_back(record);
  }
  return out;
}

}  // namespace tsufail::data
