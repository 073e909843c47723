#include "data/snapshot.h"

#include <utility>

namespace tsufail::data {

Result<SnapshotPtr> LogSnapshot::build(FailureLog log, std::uint64_t epoch) {
  LogIndex index(log);
  return SnapshotPtr(new LogSnapshot(std::move(log), std::move(index), epoch));
}

Result<SnapshotPtr> LogSnapshot::extend(const LogSnapshot& base,
                                        std::vector<FailureRecord> appended,
                                        double slack_hours) {
  auto merged = FailureLog::append(base.log_, std::move(appended), slack_hours);
  if (!merged.ok()) return merged.error().with_context("snapshot extend");
  LogIndex index = LogIndex::extend(base.index_, merged.value());
  return SnapshotPtr(
      new LogSnapshot(std::move(merged).value(), std::move(index), base.epoch_ + 1));
}

}  // namespace tsufail::data
