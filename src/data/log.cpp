#include "data/log.h"

#include <algorithm>

namespace tsufail::data {
namespace {

bool earlier(const FailureRecord& a, const FailureRecord& b) noexcept { return a.time < b.time; }

}  // namespace

Result<FailureLog> FailureLog::create(MachineSpec spec, std::vector<FailureRecord> records,
                                      double slack_hours) {
  // Stable by time.  Input already in order (CSV written by
  // write_log_csv, sealed stream epochs) is left as it is: a stable sort
  // of sorted input changes nothing, so checking first only saves work.
  if (!std::is_sorted(records.begin(), records.end(), earlier))
    std::stable_sort(records.begin(), records.end(), earlier);
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

std::vector<FailureRecord> FailureLog::by_category(Category category) const {
  std::vector<FailureRecord> out;
  for (const auto& record : records_) {
    if (record.category == category) out.push_back(record);
  }
  return out;
}

}  // namespace tsufail::data
