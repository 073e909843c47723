#include "data/snapshot.h"

#include <utility>

namespace tsufail::data {

Result<SnapshotPtr> LogSnapshot::build(const FailureLog& log, std::uint64_t epoch) {
  return build(LogIndex(log), epoch);
}

SnapshotPtr LogSnapshot::build(LogIndex index, std::uint64_t epoch) {
  return SnapshotPtr(new LogSnapshot(std::move(index), epoch));
}

Result<SnapshotPtr> LogSnapshot::extend(const LogSnapshot& base, const FailureLog& suffix) {
  // hours() holds hours_between(log_start, time) per record, so comparing
  // the suffix's first offset with the base's last compares their times.
  if (!base.empty() && !suffix.empty() &&
      hours_between(base.spec().log_start, suffix.records().front().time) <
          base.index_.hours().back())
    return Error(ErrorKind::kValidation,
                 "snapshot extend: append: suffix record predates the base log's last record");
  return SnapshotPtr(new LogSnapshot(LogIndex::extend(base.index_, suffix), base.epoch_ + 1));
}

Result<SnapshotPtr> LogSnapshot::extend(const LogSnapshot& base,
                                        std::vector<FailureRecord> appended,
                                        double slack_hours) {
  auto suffix = FailureLog::create(base.spec(), std::move(appended), slack_hours);
  if (!suffix.ok()) return suffix.error().with_context("snapshot extend");
  return extend(base, suffix.value());
}

}  // namespace tsufail::data
