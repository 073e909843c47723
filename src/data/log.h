// FailureLog: an immutable, time-sorted collection of failure records for
// one machine, each validated against its spec.  It only stores and
// constructs; the analyses read a log through data::LogIndex
// (log_index.h), which derives every grouping they need in one pass.  A
// serve seal validates the records it seals as one such log, the suffix
// that LogSnapshot::extend indexes and the tenant persists.
#pragma once

#include <span>
#include <vector>

#include "data/machine.h"
#include "data/record.h"
#include "util/error.h"

namespace tsufail::data {

class FailureLog {
 public:
  /// Builds a log, sorting records by time and validating each against the
  /// spec.  Errors name the offending record index.  `slack_hours` relaxes
  /// the window check (generated logs may slightly overshoot the window).
  static Result<FailureLog> create(MachineSpec spec, std::vector<FailureRecord> records,
                                   double slack_hours = 0.0);

  const MachineSpec& spec() const noexcept { return spec_; }
  Machine machine() const noexcept { return spec_.machine; }
  std::span<const FailureRecord> records() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }

  /// Copies of one category's records, in time order — the per-category
  /// stream ops::simulate_spares and ops::analyze_availability replay.
  std::vector<FailureRecord> by_category(Category category) const;

  /// Adopts records that are already time-sorted and already validated —
  /// the shape a checksummed columnar snapshot materializes — skipping
  /// create()'s stable_sort and per-record checks.  Record order is
  /// preserved exactly (ties included), so a snapshot round-trip is
  /// order-identical to the log it was packed from.  Precondition
  /// (REQUIREd): records ascending by time.
  static FailureLog from_sorted(MachineSpec spec, std::vector<FailureRecord> records);

  /// Moves the record storage out of a finished log, so batch drivers
  /// (sim::run_sweep) can recycle one allocation across many generated
  /// logs instead of reallocating per replicate.  The log is left empty.
  static std::vector<FailureRecord> take_records(FailureLog&& log) noexcept {
    return std::move(log.records_);
  }

 private:
  FailureLog(MachineSpec spec, std::vector<FailureRecord> records)
      : spec_(std::move(spec)), records_(std::move(records)) {}

  MachineSpec spec_;
  std::vector<FailureRecord> records_;  // invariant: ascending by time
};

}  // namespace tsufail::data
