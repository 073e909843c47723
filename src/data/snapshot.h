// LogSnapshot: an immutable, shareable (log + index + epoch) triple.
//
// The serve layer swaps a tenant's current snapshot pointer on every
// epoch refresh; readers that grabbed the previous pointer keep a fully
// consistent view for as long as they hold it, so queries never block
// ingest and ingest never invalidates a query mid-flight.  The snapshot
// owns its FailureLog (the base of the next epoch's append) and its
// LogIndex (which owns its own columns), and lifetime management is a
// shared_ptr refcount instead of a discipline.
//
// Epoch 0 is the snapshot built from the initial (possibly empty) log;
// extend() produces epoch n+1 by delta-merging newly sealed records
// through FailureLog::append + LogIndex::extend, so a refresh costs
// O(new records) derived-data work instead of a full rebuild while
// staying bit-identical to one (the equivalence is gated by
// tests/data_index_test.cpp and the differential oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/log.h"
#include "data/log_index.h"

namespace tsufail::data {

class LogSnapshot;

/// How snapshots are passed around: immutable and refcounted.
using SnapshotPtr = std::shared_ptr<const LogSnapshot>;

class LogSnapshot {
 public:
  /// Builds epoch `epoch` (default 0) from a complete log.
  static Result<SnapshotPtr> build(FailureLog log, std::uint64_t epoch = 0);

  /// Delta-merge: a new snapshot whose log is `base`'s log plus
  /// `appended` (time-ordered at the seam; validated against the spec
  /// with `slack_hours`), at epoch base.epoch() + 1.  The index is
  /// extended incrementally from `base`'s.
  static Result<SnapshotPtr> extend(const LogSnapshot& base,
                                    std::vector<FailureRecord> appended,
                                    double slack_hours = 0.0);

  const FailureLog& log() const noexcept { return log_; }
  const LogIndex& index() const noexcept { return index_; }
  const MachineSpec& spec() const noexcept { return log_.spec(); }
  std::uint64_t epoch() const noexcept { return epoch_; }
  std::size_t size() const noexcept { return log_.size(); }
  bool empty() const noexcept { return log_.empty(); }

  LogSnapshot(const LogSnapshot&) = delete;
  LogSnapshot& operator=(const LogSnapshot&) = delete;

 private:
  LogSnapshot(FailureLog log, LogIndex index, std::uint64_t epoch)
      : log_(std::move(log)), index_(std::move(index)), epoch_(epoch) {}

  FailureLog log_;
  LogIndex index_;
  std::uint64_t epoch_;
};

}  // namespace tsufail::data
