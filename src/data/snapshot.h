// LogSnapshot: an immutable, shareable (index + epoch) pair.
//
// The serve layer swaps a tenant's current snapshot pointer on every
// epoch refresh; readers that grabbed the previous pointer keep a fully
// consistent view for as long as they hold it, so queries never block
// ingest and ingest never invalidates a query mid-flight.  The snapshot
// is its LogIndex (which owns its own record columns) plus an epoch
// number, and lifetime management is a shared_ptr refcount instead of a
// discipline.  No FailureRecord outlives the build or the merge.
//
// Epoch 0 is the snapshot built from the initial (possibly empty) log;
// extend() produces epoch n+1 from a validated suffix log through
// LogIndex::extend, so a refresh computes only the new records' derived
// data while staying bit-identical to a full rebuild (the equivalence is
// gated by tests/data_index_test.cpp and the differential oracle).
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
  /// Builds epoch `epoch` (default 0) by indexing a complete log; the
  /// snapshot keeps only the index.
  static Result<SnapshotPtr> build(const FailureLog& log, std::uint64_t epoch = 0);
  /// Epoch `epoch` over an index built elsewhere (a re-mounted tenant's).
  static SnapshotPtr build(LogIndex index, std::uint64_t epoch);

  /// Delta-merge: `base`'s records followed by `suffix`'s (validated and
  /// time-sorted by type), at epoch base.epoch() + 1.  Errors
  /// (kValidation): the suffix's earliest record predates `base`'s last.
  static Result<SnapshotPtr> extend(const LogSnapshot& base, const FailureLog& suffix);

  /// The same merge from raw records, validated and sorted against
  /// base's spec with `slack_hours` (FailureLog::create).
  static Result<SnapshotPtr> extend(const LogSnapshot& base,
                                    std::vector<FailureRecord> appended,
                                    double slack_hours = 0.0);

  const LogIndex& index() const noexcept { return index_; }
  const MachineSpec& spec() const noexcept { return index_.spec(); }
  std::uint64_t epoch() const noexcept { return epoch_; }
  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }

  LogSnapshot(const LogSnapshot&) = delete;
  LogSnapshot& operator=(const LogSnapshot&) = delete;

 private:
  LogSnapshot(LogIndex index, std::uint64_t epoch) : index_(std::move(index)), epoch_(epoch) {}

  LogIndex index_;
  std::uint64_t epoch_;
};

}  // namespace tsufail::data
