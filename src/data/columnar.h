// ColumnarSnapshot: the on-disk/binary form of a FailureLog as sorted
// column arrays behind a versioned, checksummed, mmap-able header.
//
// Motivation: every entry point used to re-parse CSV per run.  A packed
// snapshot turns "load a tenant's history" into an mmap + checksum sweep
// — no tokenizing, no timestamp parsing, no re-sort (the columns are
// stored in the log's canonical time order) — and a LogIndex adopts the
// record columns zero-copy: its TTR, category, slot and locus spans point
// straight into the mapped bytes, and only hours and the groups are
// derived.  bench_pack gates that open + adopt beats rebuilding the log
// and index from in-memory records on the Tsubame presets; the
// differential oracle's snapshot_roundtrip check and the golden byte
// gates pin pack -> load -> analyze == parse -> analyze.
//
// Layout (version 1, all integers in host byte order — see below):
//
//   header   48 B   magic "TSNAPCOL", format version, endianness tag
//                   0x01020304, record count, section count, flags
//                   (written 0), 64-bit xor-multiply checksum of the
//                   section table
//   table    32 B x section count   {id, reserved, offset, byte size,
//                   64-bit xor-multiply checksum of the section bytes}
//   sections ...    each 8-byte aligned, zero-padded between
//
// Sections (fixed ids; unknown ids are rejected — the format is
// versioned, not self-describing):
//
//   1 spec           serialized MachineSpec (machine, geometry, Rpeak,
//                    power, log window, name) — snapshots of scaled /
//                    simulated machines round-trip exactly
//   2 times          i64[n]   seconds since epoch, ascending
//   3 nodes          i32[n]
//   4 categories     u8[n]
//   5 ttr            f64[n]
//   6 slot_offsets   u32[n+1] CSR offsets into slot_data
//   7 slot_data      i32[sum] GPU slots, record-major
//   8 locus_offsets  u32[n+1] CSR offsets into locus_data
//   9 locus_data     bytes    root-locus strings, record-major
//
// Retired sections: files from older builds may also carry ids 10-13 (a
// precomputed LogIndex: hours, arena, ranges, node groups) with header
// flag bit 0 set.  The reader checksums them like any section and then
// ignores them and the flag, so those files still load; no writer emits
// them, since deriving the groups from the record columns costs about
// what checking stored ones against those columns would.
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

namespace tsufail::data {

class ColumnarSnapshot;
class LogIndex;

/// A time-sorted log's record columns in the section layout above, as a
/// loaded snapshot's and a LogIndex's columns() show them (an index's
/// times and nodes are empty: they only feed its builder).
struct ColumnsView {
  std::span<const std::int64_t> times;
  std::span<const std::int32_t> nodes;
  std::span<const std::uint8_t> categories;
  std::span<const double> ttr;
  std::span<const std::uint32_t> slot_offsets;   ///< size() + 1 entries
  std::span<const std::int32_t> slot_data;
  std::span<const std::uint32_t> locus_offsets;  ///< size() + 1 entries
  std::string_view locus_data;

  std::size_t size() const noexcept { return categories.size(); }
  Category category_of(std::uint32_t i) const noexcept { return Category{categories[i]}; }
  /// GPU slots of record `i` (CSR row; usually empty).
  std::span<const std::int32_t> gpu_slots_of(std::uint32_t i) const noexcept {
    return slot_data.subspan(slot_offsets[i], slot_offsets[i + 1] - slot_offsets[i]);
  }
  /// Root-locus label of record `i` (CSR row; usually empty).
  std::string_view root_locus_of(std::uint32_t i) const noexcept {
    return locus_data.substr(locus_offsets[i], locus_offsets[i + 1] - locus_offsets[i]);
  }
};

/// The owned form of ColumnsView, and the one place FailureRecord fields
/// are laid out as columns: `views`' records in order, then `records`,
/// each column reserved once.  A view without times and nodes (an
/// index's) adds none, so those two then cover only the trailing records.
struct RecordColumns {
  explicit RecordColumns(std::span<const ColumnsView> views = {},
                         std::span<const FailureRecord> records = {});

  ColumnsView view() const noexcept {
    return {times, nodes, categories, ttr, slot_offsets, slot_data, locus_offsets, locus_data};
  }

  std::vector<std::int64_t> times;
  std::vector<std::int32_t> nodes;
  std::vector<std::uint8_t> categories;
  std::vector<double> ttr;
  std::vector<std::uint32_t> slot_offsets{0};
  std::vector<std::int32_t> slot_data;
  std::vector<std::uint32_t> locus_offsets{0};
  std::string locus_data;
};

/// How snapshots are passed around: immutable and refcounted (a mapped
/// snapshot backs zero-copy LogIndex spans, so its lifetime must cover
/// every reader's).
using ColumnarSnapshotPtr = std::shared_ptr<const ColumnarSnapshot>;

/// Serializes `records` (which must be time-sorted — the FailureLog
/// invariant) into one snapshot byte buffer.
std::string pack_columnar(const MachineSpec& spec, std::span<const FailureRecord> records);

/// Packs a whole log.  `index` is ignored: snapshots store record columns
/// only, and loads derive the index from them.  The parameter stays so
/// existing callers compile.
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
  /// section table bounds + alignment, per-section checksums, ascending
  /// times, monotone CSR offsets, and every check validate_record makes
  /// but the window, which is the caller's.  Maps the file where mmap
  /// exists and works, else reads it into an owned buffer.
  static Result<ColumnarSnapshotPtr> open(const std::string& path);

  /// Same validation over an in-memory buffer (copied into aligned owned
  /// storage) — the pack-side of tests and the oracle's roundtrip check.
  static Result<ColumnarSnapshotPtr> from_bytes(std::string_view bytes);

  const MachineSpec& spec() const noexcept { return spec_; }
  std::size_t size() const noexcept { return columns_.size(); }
  bool empty() const noexcept { return columns_.size() == 0; }
  /// True when the views are zero-copy over an mmap (vs an owned buffer).
  bool mapped() const noexcept { return mapped_; }

  /// Zero-copy record columns (valid while this snapshot lives).
  const ColumnsView& columns() const noexcept { return columns_; }

  /// Materializes the whole log (allocates per record: prefer the column
  /// views in hot paths).  The load validated every record, so this
  /// skips create()'s re-sort + per-record checks (the columns are stored
  /// in canonical order; order is preserved exactly, ties included).
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

  ColumnsView columns_;
};

}  // namespace tsufail::data
