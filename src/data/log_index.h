// LogIndex: a build-once, immutable indexed view over a FailureLog, and
// the one input type of every analysis in src/analysis/, run_study
// included.
//
// The index does the per-record work exactly once, so no analysis
// re-scans, re-copies or re-sorts the record vector to carve out its
// event stream: records keep their time order, hour offsets from the
// window start and TTR values are precomputed into dense arrays, and the
// common groupings — category, hardware/software class, node, calendar
// month, GPU attribution — are materialized as position spans into one
// shared arena.  Analyses then read spans instead of filtering, and a
// whole-study run touches each record O(1) times.
//
// Invariants (asserted by tests/data_index_test.cpp):
//   * positions are indices into the log's records (record(i)), and
//     every group span is strictly ascending — so iterating a span
//     preserves time order;
//   * hours()[i] == hours_between(spec().log_start, record(i).time)
//     and ttr()[i] == record(i).ttr_hours, bit-identical;
//   * category/class/month/node groups partition the record positions;
//   * multi_gpu() is a subset of gpu_attributed().
//
// The index borrows the log (no record copies); the log must outlive it.
// Every entry point that takes a log deletes its rvalue overload, so an
// index over a temporary log does not compile.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/log.h"
#include "util/error.h"

namespace tsufail::data {

class ColumnarSnapshot;

class LogIndex {
 public:
  /// Builds the index in one pass over `log` (plus one calendar
  /// conversion per record for the month groups).
  explicit LogIndex(const FailureLog& log);
  explicit LogIndex(const FailureLog&& log) = delete;

  /// Delta-merge: indexes `log` — which must hold the records of
  /// `base`'s log as an identical prefix (the append-only shape a sealed
  /// epoch produces) — by copying `base`'s derived arrays and computing
  /// only the appended suffix.  The result is bit-identical to
  /// `LogIndex(log)` built from scratch (asserted by
  /// tests/data_index_test.cpp and the differential oracle); both paths
  /// run through the same builder.  Precondition (REQUIREd):
  /// log.size() >= base.size() and the logs share a machine spec.
  static LogIndex extend(const LogIndex& base, const FailureLog& log);
  static LogIndex extend(const LogIndex& base, const FailureLog&& log) = delete;

  /// Adopts the precomputed index sections of a loaded columnar
  /// snapshot: the hours/TTR/arena spans point straight into the
  /// snapshot's (checksummed, structurally validated) memory — zero
  /// copy — while the small range tables are re-derived from its flat
  /// ranges stream.  `log` must be the snapshot's materialized log and
  /// must outlive the index; the snapshot itself is retained by
  /// refcount.  The result is bit-identical to `LogIndex(log)` (gated by
  /// the differential oracle's snapshot_roundtrip check).  Errors: the
  /// snapshot has no index sections or disagrees with `log` on size.
  static Result<LogIndex> from_columnar(const FailureLog& log,
                                        std::shared_ptr<const ColumnarSnapshot> snapshot);
  static Result<LogIndex> from_columnar(const FailureLog&& log,
                                        std::shared_ptr<const ColumnarSnapshot> snapshot) = delete;

  const MachineSpec& spec() const noexcept { return log_->spec(); }
  Machine machine() const noexcept { return log_->machine(); }
  std::size_t size() const noexcept { return log_->size(); }
  bool empty() const noexcept { return log_->empty(); }

  /// Hours since spec().log_start per record, ascending, aligned with
  /// record positions.
  std::span<const double> hours() const noexcept { return hours_; }
  /// TTR per record, aligned with record positions.
  std::span<const double> ttr() const noexcept { return ttr_; }

  /// Record positions of one category, in time order.
  std::span<const std::uint32_t> by_category(Category category) const noexcept {
    return resolve(categories_[static_cast<std::size_t>(category)]);
  }
  /// Record positions of one hardware/software class, in time order.
  std::span<const std::uint32_t> by_class(FailureClass cls) const noexcept {
    return resolve(classes_[static_cast<std::size_t>(cls)]);
  }
  /// Positions of GPU-related records that carry slot attribution
  /// (the Figure 5 / Table III population).
  std::span<const std::uint32_t> gpu_attributed() const noexcept {
    return resolve(gpu_attributed_);
  }
  /// Positions of records naming >= 2 GPU slots (the Figure 8 stream).
  std::span<const std::uint32_t> multi_gpu() const noexcept { return resolve(multi_gpu_); }
  /// Positions falling in one calendar month (1..12), in time order.
  std::span<const std::uint32_t> by_month(int month) const noexcept {
    return resolve(months_[static_cast<std::size_t>(month - 1)]);
  }

  /// One node's failures: the node id and its record positions.
  struct NodeGroup {
    int node = 0;
    std::uint32_t begin = 0;  ///< arena offset (use positions_of)
    std::uint32_t count = 0;
  };
  /// Nodes with >= 1 failure, ascending by node id.
  std::span<const NodeGroup> nodes() const noexcept { return node_groups_; }
  /// Record positions of one node group, in time order.
  std::span<const std::uint32_t> positions_of(const NodeGroup& group) const noexcept {
    return {arena_.data() + group.begin, group.count};
  }

  /// Number of records in one category (vocabulary-independent: 0 for
  /// categories the machine never reports).
  std::size_t count(Category category) const noexcept { return by_category(category).size(); }

  const FailureRecord& record(std::uint32_t position) const noexcept {
    return log_->records()[position];
  }

  /// Gathers hours() values for a position span (time order preserved).
  std::vector<double> hours_of(std::span<const std::uint32_t> positions) const;
  /// Gathers ttr() values for a position span (record order preserved).
  std::vector<double> ttr_of(std::span<const std::uint32_t> positions) const;

 private:
  struct ExtendTag {};
  LogIndex(const FailureLog& log, ExtendTag) : log_(&log) {}

  /// The one builder behind both construction paths: computes derived
  /// arrays for records [base->size(), n) and lays every group out in
  /// the canonical arena order, seeding the prefix from `base` (nullptr
  /// = batch build from record 0).
  void build_from(const LogIndex* base);

  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  std::span<const std::uint32_t> resolve(const Range& range) const noexcept {
    return {arena_.data() + range.begin, range.count};
  }

  static constexpr std::size_t kCategories = static_cast<std::size_t>(Category::kUnknown) + 1;
  static constexpr std::size_t kClasses = static_cast<std::size_t>(FailureClass::kUnknown) + 1;

  /// The dense arrays a from-scratch (or extend) build produces.  They
  /// live behind `backing_` so the hot accessors are plain spans whether
  /// the storage is owned here or borrowed zero-copy from a mapped
  /// ColumnarSnapshot.
  struct Arrays {
    std::vector<double> hours;
    std::vector<double> ttr;
    std::vector<std::uint32_t> arena;
  };

  const FailureLog* log_;
  /// Keeps the bytes behind the spans alive: an owned Arrays built here,
  /// or an adopted ColumnarSnapshot.  Copying the index bumps one
  /// refcount, so accessors never dangle and copies stay cheap.
  std::shared_ptr<const void> backing_;
  std::span<const double> hours_;
  std::span<const double> ttr_;
  /// One arena for all groups: ranges index into it.
  std::span<const std::uint32_t> arena_;
  std::array<Range, kCategories> categories_{};
  std::array<Range, kClasses> classes_{};
  std::array<Range, 12> months_{};
  Range gpu_attributed_{};
  Range multi_gpu_{};
  std::vector<NodeGroup> node_groups_;
};

}  // namespace tsufail::data
