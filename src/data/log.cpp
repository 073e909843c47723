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

std::vector<FailureRecord> FailureLog::filter(
    const std::function<bool(const FailureRecord&)>& predicate) const {
  std::vector<FailureRecord> out;
  for (const auto& record : records_) {
    if (predicate(record)) out.push_back(record);
  }
  return out;
}

std::vector<FailureRecord> FailureLog::by_category(Category category) const {
  return filter([category](const FailureRecord& r) { return r.category == category; });
}

std::vector<FailureRecord> FailureLog::by_class(FailureClass cls) const {
  return filter([cls](const FailureRecord& r) { return r.failure_class() == cls; });
}

std::vector<FailureRecord> FailureLog::gpu_related() const {
  return filter([](const FailureRecord& r) { return r.gpu_related(); });
}

std::vector<FailureRecord> FailureLog::in_window(TimePoint from, TimePoint to) const {
  return filter([from, to](const FailureRecord& r) { return r.time >= from && r.time <= to; });
}

std::map<Category, std::size_t> FailureLog::count_by_category() const {
  std::map<Category, std::size_t> counts;
  for (Category c : categories_for(spec_.machine)) counts[c] = 0;
  for (const auto& record : records_) ++counts[record.category];
  return counts;
}

std::map<int, std::size_t> FailureLog::count_by_node() const {
  std::map<int, std::size_t> counts;
  for (const auto& record : records_) ++counts[record.node];
  return counts;
}

std::vector<double> FailureLog::failure_hours_since_start() const {
  std::vector<double> hours;
  hours.reserve(records_.size());
  for (const auto& record : records_) hours.push_back(hours_between(spec_.log_start, record.time));
  return hours;
}

std::vector<double> FailureLog::ttr_values() const {
  std::vector<double> values;
  values.reserve(records_.size());
  for (const auto& record : records_) values.push_back(record.ttr_hours);
  return values;
}

Result<FailureLog> FailureLog::sublog(std::vector<FailureRecord> records) const {
  return create(spec_, std::move(records), /*slack_hours=*/24.0 * 14);
}

}  // namespace tsufail::data
