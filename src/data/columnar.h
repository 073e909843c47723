// ColumnarSnapshot: the on-disk/binary form of a FailureLog (+ optional
// LogIndex) as sorted column arrays behind a versioned, checksummed,
// mmap-able header.
//
// Motivation: every entry point used to re-parse CSV per run.  A packed
// snapshot turns "load a tenant's history" into an mmap + checksum sweep
// + O(n) materialization — no tokenizing, no timestamp parsing, no
// re-sort (the columns are stored in the log's canonical time order) —
// and, when the index sections are present, LogIndex adoption is
// zero-copy: its hours/TTR/arena spans point straight into the mapped
// bytes.  bench_pack gates that a load beats rebuilding the log and index
// from in-memory records on the Tsubame presets; the differential
// oracle's snapshot_roundtrip check and the golden byte gates pin
// pack -> load -> analyze == parse -> analyze.
//
// Layout (version 1, all integers in host byte order — see below):
//
//   header   48 B   magic "TSNAPCOL", format version, endianness tag
//                   0x01020304, record count, section count, flags
//                   (bit 0 = index sections present), 64-bit xor-multiply checksum
//                   of the section table
//   table    32 B x section count   {id, reserved, offset, byte size,
//                   64-bit xor-multiply checksum of the section bytes}
//   sections ...    each 8-byte aligned, zero-padded between
//
// Sections (fixed ids; unknown ids are rejected — the format is
// versioned, not self-describing):
//
//   spec           serialized MachineSpec (machine, geometry, Rpeak,
//                  power, log window, name) — snapshots of scaled /
//                  simulated machines round-trip exactly
//   times          i64[n]   seconds since epoch, ascending
//   nodes          i32[n]
//   categories     u8[n]
//   ttr            f64[n]   (doubles as the index's TTR column)
//   slot_offsets   u32[n+1] CSR offsets into slot_data
//   slot_data      i32[sum] GPU slots, record-major
//   locus_offsets  u32[n+1] CSR offsets into locus_data
//   locus_data     bytes    root-locus strings, record-major
//   hours          f64[n]            ┐
//   arena          u32[a]            │ index sections, present iff
//   ranges         u32 pairs         │ flags bit 0 (see LogIndex)
//   node_groups    {u32 node,begin,count}[g] ┘
//
// Versioning / endianness rules: `version` bumps on any layout change —
// there are no minor/feature bits, a reader accepts exactly the versions
// it knows.  Integers are written in host byte order and the header
// carries the 0x01020304 tag; a foreign-endian file is *rejected*, not
// swapped (the zero-copy contract is pointer casts into the mapped
// bytes, and the fleets this serves are homogeneous little-endian).
// Every section is independently checksummed (64-bit xor-multiply) and verified at
// load, so truncation, bit rot, and torn writes fail loudly before any
// analysis sees a byte.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/log.h"
#include "data/log_index.h"

namespace tsufail::data {

class ColumnarSnapshot;

/// How snapshots are passed around: immutable and refcounted (a mapped
/// snapshot backs zero-copy LogIndex spans, so its lifetime must cover
/// every reader's).
using ColumnarSnapshotPtr = std::shared_ptr<const ColumnarSnapshot>;

/// How ColumnarSnapshot::open brings the bytes in.
enum class SnapshotLoadMode {
  kAuto,    ///< mmap where the platform supports it, else streamed read
  kMap,     ///< mmap only; error if unavailable
  kStream,  ///< read into an owned (aligned) buffer
};

/// Serializes `records` (which must be time-sorted — the FailureLog
/// invariant) and, when non-null, `index` into one snapshot byte buffer.
/// Precondition (REQUIREd): index->size() == records.size().
std::string pack_columnar(const MachineSpec& spec, std::span<const FailureRecord> records,
                          const LogIndex* index = nullptr);

/// Packs a whole log; include the index to make loads adopt it zero-copy.
std::string pack_columnar(const FailureLog& log, const LogIndex* index = nullptr);

/// Writes `bytes` to `path` atomically (temp file + rename), so readers
/// never observe a torn snapshot.  Errors: kIo.
Result<void> write_columnar_file(const std::string& path, std::string_view bytes);

class ColumnarSnapshot {
 public:
  static constexpr std::string_view kMagic = "TSNAPCOL";
  static constexpr std::uint32_t kFormatVersion = 1;

  /// True iff `prefix` (>= 8 bytes of a file) starts with the snapshot
  /// magic — the cheap sniff the CLI uses to accept .tsnap and .csv
  /// interchangeably.
  static bool sniff(std::string_view prefix) noexcept;

  /// Loads and fully validates a snapshot file: magic/version/endianness,
  /// section table bounds + alignment, per-section checksums, and the
  /// structural invariants of every column (ascending times, node ids
  /// within the spec, category bytes within the vocabulary, monotone CSR
  /// offsets, index ranges within the arena).  kAuto maps the file where
  /// mmap exists and falls back to a streamed read.
  static Result<ColumnarSnapshotPtr> open(const std::string& path,
                                          SnapshotLoadMode mode = SnapshotLoadMode::kAuto);

  /// Same validation over an in-memory buffer (copied into aligned owned
  /// storage) — the pack-side of tests and the oracle's roundtrip check.
  static Result<ColumnarSnapshotPtr> from_bytes(std::string_view bytes);

  const MachineSpec& spec() const noexcept { return spec_; }
  std::size_t size() const noexcept { return record_count_; }
  bool empty() const noexcept { return record_count_ == 0; }
  /// True when the index sections are present (pack saw a LogIndex).
  bool has_index() const noexcept { return has_index_; }
  /// True when the views are zero-copy over an mmap (vs an owned buffer).
  bool mapped() const noexcept { return mapped_; }
  std::size_t byte_size() const noexcept { return byte_size_; }

  // --- Zero-copy column views (valid while this snapshot lives) -------
  std::span<const std::int64_t> times() const noexcept { return times_; }
  std::span<const std::int32_t> nodes() const noexcept { return nodes_; }
  std::span<const std::uint8_t> categories() const noexcept { return categories_; }
  std::span<const double> ttr() const noexcept { return ttr_; }
  /// GPU slots of record `i` (CSR row; usually empty).
  std::span<const std::int32_t> gpu_slots_of(std::uint32_t i) const noexcept {
    return {slot_data_.data() + slot_offsets_[i], slot_offsets_[i + 1] - slot_offsets_[i]};
  }
  /// Root-locus label of record `i` (CSR row; usually empty).
  std::string_view root_locus_of(std::uint32_t i) const noexcept {
    return locus_data_.substr(locus_offsets_[i], locus_offsets_[i + 1] - locus_offsets_[i]);
  }

  // --- Index sections (empty spans unless has_index()) ----------------
  std::span<const double> hours() const noexcept { return hours_; }
  std::span<const std::uint32_t> index_arena() const noexcept { return arena_; }
  /// The flat {begin, count} pair stream in LogIndex's canonical group
  /// order: categories, classes, months 1..12, gpu-attributed, multi-GPU.
  std::span<const std::uint32_t> index_ranges() const noexcept { return ranges_; }
  /// Per-node groups, ascending by node id (begin/count into the arena).
  std::span<const LogIndex::NodeGroup> node_groups() const noexcept { return node_groups_; }

  /// Materializes record `i` (allocates for slots/locus — prefer the
  /// column views in hot paths).
  FailureRecord record_at(std::uint32_t i) const;

  /// Materializes the whole log.  The records were validated when the
  /// source log was created and the columns re-validated structurally at
  /// load, so this skips create()'s re-sort + per-record checks (the
  /// columns are stored in canonical order; order is preserved exactly,
  /// ties included).
  FailureLog to_log() const;

  ~ColumnarSnapshot();
  ColumnarSnapshot(const ColumnarSnapshot&) = delete;
  ColumnarSnapshot& operator=(const ColumnarSnapshot&) = delete;

 private:
  ColumnarSnapshot() = default;

  /// Parses + validates `data_`/`byte_size_`; fills every view.
  Result<void> parse();

  // Backing storage: exactly one of these is active.
  std::vector<std::uint64_t> owned_;  ///< streamed read (8-byte aligned)
  void* map_addr_ = nullptr;          ///< mmap base (unmapped in dtor)
  std::size_t map_len_ = 0;

  const char* data_ = nullptr;
  std::size_t byte_size_ = 0;
  bool mapped_ = false;

  MachineSpec spec_;
  std::size_t record_count_ = 0;
  bool has_index_ = false;

  std::span<const std::int64_t> times_;
  std::span<const std::int32_t> nodes_;
  std::span<const std::uint8_t> categories_;
  std::span<const double> ttr_;
  std::span<const std::uint32_t> slot_offsets_;
  std::span<const std::int32_t> slot_data_;
  std::span<const std::uint32_t> locus_offsets_;
  std::string_view locus_data_;
  std::span<const double> hours_;
  std::span<const std::uint32_t> arena_;
  std::span<const std::uint32_t> ranges_;
  std::vector<LogIndex::NodeGroup> node_groups_;  ///< parsed copy (small)
};

}  // namespace tsufail::data
