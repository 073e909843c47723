// LogIndex: the columnar form of a failure log, and the one input type of
// every analysis in src/analysis/, run_study included.
//
// The index holds the per-record columns the analyses read as a
// ColumnsView (data/columnar.h) without times and nodes, which only feed
// the builder.  Built from a FailureLog it lays the records out as
// RecordColumns, so the log may be destroyed afterwards, or it keeps
// RecordColumns it is given; built from a loaded ColumnarSnapshot it
// points at the snapshot's own columns without copying them (zero-copy
// adoption) and keeps the snapshot alive; extended from a base index by
// a suffix FailureLog (a sealed serve epoch) it copies the base's columns
// and appends only the suffix's.  Whichever way, one
// builder derives the rest from the columns: hour offsets from the window
// start, and the common groupings — category, hardware/software class,
// node, calendar month, GPU attribution — as position spans into one
// shared arena.  Analyses then read spans instead of filtering, and a
// whole-study run touches each record O(1) times.
//
// Invariants (asserted by tests/data_index_test.cpp):
//   * positions are indices into the log's time-sorted records, and
//     every group span is strictly ascending — so iterating a span
//     preserves time order;
//   * hours()[i] == hours_between(spec().log_start, records[i].time)
//     and ttr()[i] == records[i].ttr_hours, bit-identical;
//   * category/class/month/node groups partition the record positions;
//   * multi_gpu() is a subset of gpu_attributed().
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "data/columnar.h"
#include "data/log.h"
#include "util/error.h"

namespace tsufail::data {

class LogIndex {
 public:
  /// Copies the record columns out of `log` and derives every group in
  /// one pass (plus one calendar conversion per record for the months).
  explicit LogIndex(const FailureLog& log);

  /// Adopts a loaded snapshot's record columns without copying them and
  /// derives hours and every group from its times, nodes, categories and
  /// slot offsets.  The snapshot stays alive for as long as the index (or
  /// any copy of it) does.  Bit-identical to LogIndex(snapshot->to_log())
  /// (gated by the differential oracle's snapshot_roundtrip check).
  /// Precondition (REQUIREd): snapshot is non-null.
  explicit LogIndex(std::shared_ptr<const ColumnarSnapshot> snapshot);

  /// Indexes owned columns (a serve remount's concatenated segments).
  /// Precondition: they pass every check a snapshot load makes.
  LogIndex(const MachineSpec& spec, RecordColumns columns);

  /// Delta-merge: indexes `base`'s records followed by `suffix`'s (the
  /// append-only shape a sealed epoch produces) by copying `base`'s
  /// columns and groups and computing only the suffix's.  The suffix is
  /// a FailureLog, so it is validated and time-sorted by type.  The
  /// result is bit-identical to `LogIndex` built from scratch over the
  /// concatenated records (asserted by tests/data_index_test.cpp and the
  /// differential oracle); both paths run through the same builder.
  /// Preconditions (REQUIREd): the suffix has base's machine and node
  /// count, and its earliest record does not predate base's last.
  static LogIndex extend(const LogIndex& base, const FailureLog& suffix);

  const MachineSpec& spec() const noexcept { return spec_; }
  Machine machine() const noexcept { return spec_.machine; }
  std::size_t size() const noexcept { return columns_.size(); }
  bool empty() const noexcept { return columns_.size() == 0; }

  /// Hours since spec().log_start per record, ascending, aligned with
  /// record positions.
  std::span<const double> hours() const noexcept { return hours_; }
  /// TTR per record, aligned with record positions.
  std::span<const double> ttr() const noexcept { return columns_.ttr; }
  /// The record columns, by position; times and nodes are empty.
  const ColumnsView& columns() const noexcept { return columns_; }

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

  /// Gathers hours() values for a position span (time order preserved).
  std::vector<double> hours_of(std::span<const std::uint32_t> positions) const;
  /// Gathers ttr() values for a position span (record order preserved).
  std::vector<double> ttr_of(std::span<const std::uint32_t> positions) const;

 private:
  struct Storage;
  explicit LogIndex(const MachineSpec& spec) : spec_(spec) {}

  /// Owns `columns`, which follow `base`'s records (nullptr = no
  /// prefix), derives, then frees their times and nodes.
  void index_columns(const LogIndex* base, RecordColumns columns);

  /// The one builder: derives hours for records [from, n) and lays every
  /// group out in the canonical arena order, seeding the prefix [0, from)
  /// from `base` (nullptr = from = 0).  columns_ must cover [0, n) except
  /// times and nodes, which cover only [from, n); it drops those two.
  void derive(const LogIndex* base, Storage& storage);

  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  std::span<const std::uint32_t> resolve(const Range& range) const noexcept {
    return {arena_.data() + range.begin, range.count};
  }

  static constexpr std::size_t kCategories = static_cast<std::size_t>(Category::kUnknown) + 1;
  static constexpr std::size_t kClasses = static_cast<std::size_t>(FailureClass::kUnknown) + 1;

  MachineSpec spec_;
  /// Keeps the bytes behind every span alive: the columns and groups this
  /// index built, plus the adopted snapshot when the record columns are
  /// its mapped bytes.  Copying the index bumps one refcount, so
  /// accessors never dangle and copies stay cheap.
  std::shared_ptr<const Storage> storage_;
  ColumnsView columns_;
  std::span<const double> hours_;
  /// One arena for all groups: ranges index into it.
  std::span<const std::uint32_t> arena_;
  std::span<const NodeGroup> node_groups_;
  std::array<Range, kCategories> categories_{};
  std::array<Range, kClasses> classes_{};
  std::array<Range, 12> months_{};
  Range gpu_attributed_{};
  Range multi_gpu_{};
};

}  // namespace tsufail::data
