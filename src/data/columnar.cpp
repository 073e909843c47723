#include "data/columnar.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"

#if defined(__unix__) || defined(__APPLE__)
#define TSUFAIL_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TSUFAIL_HAS_MMAP 0
#endif

namespace tsufail::data {
namespace {

// --- Format constants --------------------------------------------------

constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kTableEntryBytes = 32;
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kMaxSections = 64;       // sanity bound, not a format limit
constexpr std::size_t kMaxNameBytes = 4096;    // sanity bound on spec name

enum SectionId : std::uint32_t {
  kSecSpec = 1,
  kSecTimes = 2,
  kSecNodes = 3,
  kSecCategories = 4,
  kSecTtr = 5,
  kSecSlotOffsets = 6,
  kSecSlotData = 7,
  kSecLocusOffsets = 8,
  kSecLocusData = 9,
};
/// Ids 10-13 are the retired index sections of older builds: accepted,
/// checksummed and ignored (see columnar.h).
constexpr std::uint32_t kMaxSectionId = 13;

constexpr std::size_t kCategoryCount = static_cast<std::size_t>(Category::kUnknown) + 1;

/// Section checksum: xor-multiply over 8-byte words, four independent
/// lanes so the multiply latency stays off the critical path (the
/// byte-serial FNV it replaced cost more than the rest of the load path
/// combined).  Integrity detection only — not cryptographic, and the
/// value is part of format v1: changing this function is a format bump.
std::uint64_t section_checksum(const char* data, std::size_t size) noexcept {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;  // 2^64 / phi
  std::uint64_t lane[4] = {0xcbf29ce484222325ull ^ size, 0x84222325cbf29ce4ull,
                           0x100000001b3ull, 0xc2b2ae3d27d4eb4full};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    for (int w = 0; w < 4; ++w) {
      std::uint64_t word;
      std::memcpy(&word, data + i + 8 * w, sizeof word);
      lane[w] = (lane[w] ^ word) * kMul;
    }
  }
  for (int w = 0; i + 8 <= size; i += 8, w = (w + 1) & 3) {
    std::uint64_t word;
    std::memcpy(&word, data + i, sizeof word);
    lane[w] = (lane[w] ^ word) * kMul;
  }
  if (i < size) {  // tail < 8 bytes, zero-padded into one word
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    lane[0] = (lane[0] ^ word ^ (size - i)) * kMul;
  }
  std::uint64_t hash = lane[0];
  for (int w = 1; w < 4; ++w) hash = (hash ^ lane[w]) * kMul;
  hash ^= hash >> 29;  // finalizer (splitmix64 shape)
  hash *= 0xbf58476d1ce4e5b9ull;
  hash ^= hash >> 32;
  return hash;
}

// --- Little serialization helpers (host byte order throughout) ---------

void append_raw(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void append_pod(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_raw(out, &value, sizeof value);
}

template <typename T>
void append_vec(std::string& out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_raw(out, values.data(), values.size() * sizeof(T));
}

template <typename T>
T read_pod(const char* data) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, data, sizeof value);
  return value;
}

std::string pack_spec(const MachineSpec& spec) {
  std::string out;
  append_pod(out, static_cast<std::uint32_t>(spec.machine));
  append_pod(out, static_cast<std::int32_t>(spec.node_count));
  append_pod(out, static_cast<std::int32_t>(spec.gpus_per_node));
  append_pod(out, static_cast<std::int32_t>(spec.cpus_per_node));
  append_pod(out, static_cast<std::int32_t>(spec.nodes_per_rack));
  append_pod(out, spec.rpeak_pflops);
  append_pod(out, spec.power_mw);
  append_pod(out, spec.log_start.seconds_since_epoch());
  append_pod(out, spec.log_end.seconds_since_epoch());
  append_pod(out, static_cast<std::uint32_t>(spec.name.size()));
  append_raw(out, spec.name.data(), spec.name.size());
  return out;
}

Result<MachineSpec> parse_spec(const char* data, std::size_t size) {
  constexpr std::size_t kFixed = 4 + 4 * 4 + 8 * 2 + 8 * 2 + 4;
  if (size < kFixed)
    return Error(ErrorKind::kParse, "snapshot spec section truncated");
  MachineSpec spec;
  const char* p = data;
  const auto machine = read_pod<std::uint32_t>(p);
  p += 4;
  if (machine > static_cast<std::uint32_t>(Machine::kTsubame3))
    return Error(ErrorKind::kParse,
                 "snapshot spec names unknown machine id " + std::to_string(machine));
  spec.machine = static_cast<Machine>(machine);
  spec.node_count = read_pod<std::int32_t>(p);
  p += 4;
  spec.gpus_per_node = read_pod<std::int32_t>(p);
  p += 4;
  spec.cpus_per_node = read_pod<std::int32_t>(p);
  p += 4;
  spec.nodes_per_rack = read_pod<std::int32_t>(p);
  p += 4;
  spec.rpeak_pflops = read_pod<double>(p);
  p += 8;
  spec.power_mw = read_pod<double>(p);
  p += 8;
  spec.log_start = TimePoint(read_pod<std::int64_t>(p));
  p += 8;
  spec.log_end = TimePoint(read_pod<std::int64_t>(p));
  p += 8;
  const auto name_len = read_pod<std::uint32_t>(p);
  p += 4;
  if (name_len > kMaxNameBytes || kFixed + name_len != size)
    return Error(ErrorKind::kParse, "snapshot spec name length disagrees with section size");
  spec.name.assign(p, name_len);
  if (spec.node_count < 0 || spec.gpus_per_node < 0 || spec.cpus_per_node < 0 ||
      spec.nodes_per_rack < 0)
    return Error(ErrorKind::kValidation, "snapshot spec has negative machine geometry");
  return spec;
}

struct SectionOut {
  std::uint32_t id = 0;
  std::string bytes;
};

constexpr std::size_t align8(std::size_t offset) noexcept { return (offset + 7) & ~std::size_t{7}; }

}  // namespace

RecordColumns::RecordColumns(std::span<const ColumnsView> views,
                             std::span<const FailureRecord> records) {
  // The views' sizes plus `extra` entries for the records.
  const auto reserve = [&views](auto& column, auto member, std::size_t extra) {
    for (const ColumnsView& view : views) extra += (view.*member).size();
    column.reserve(extra);
  };
  reserve(times, &ColumnsView::times, records.size());
  reserve(nodes, &ColumnsView::nodes, records.size());
  reserve(categories, &ColumnsView::categories, records.size());
  reserve(ttr, &ColumnsView::ttr, records.size());
  reserve(slot_offsets, &ColumnsView::categories, records.size() + 1);
  reserve(slot_data, &ColumnsView::slot_data, 0);
  reserve(locus_offsets, &ColumnsView::categories, records.size() + 1);
  reserve(locus_data, &ColumnsView::locus_data, 0);
  // A view's CSR offsets start at 0: append its records' end offsets rebased
  // onto the data so far, which for the first view (an extend's base) is a copy.
  const auto append_offsets = [](std::vector<std::uint32_t>& out,
                                 std::span<const std::uint32_t> ends, std::size_t base) {
    const std::size_t from = out.size();
    out.insert(out.end(), ends.begin(), ends.end());
    if (base != 0)
      for (std::size_t i = from; i < out.size(); ++i) out[i] += static_cast<std::uint32_t>(base);
  };
  for (const ColumnsView& view : views) {
    times.insert(times.end(), view.times.begin(), view.times.end());
    nodes.insert(nodes.end(), view.nodes.begin(), view.nodes.end());
    categories.insert(categories.end(), view.categories.begin(), view.categories.end());
    ttr.insert(ttr.end(), view.ttr.begin(), view.ttr.end());
    append_offsets(slot_offsets, view.slot_offsets.last(view.size()), slot_data.size());
    append_offsets(locus_offsets, view.locus_offsets.last(view.size()), locus_data.size());
    slot_data.insert(slot_data.end(), view.slot_data.begin(), view.slot_data.end());
    locus_data.append(view.locus_data);
  }
  for (const FailureRecord& record : records) {
    times.push_back(record.time.seconds_since_epoch());
    nodes.push_back(record.node);
    categories.push_back(static_cast<std::uint8_t>(record.category));
    ttr.push_back(record.ttr_hours);
    slot_data.insert(slot_data.end(), record.gpu_slots.begin(), record.gpu_slots.end());
    slot_offsets.push_back(static_cast<std::uint32_t>(slot_data.size()));
    locus_data.append(record.root_locus);
    locus_offsets.push_back(static_cast<std::uint32_t>(locus_data.size()));
  }
}

std::string pack_columnar(const MachineSpec& spec, std::span<const FailureRecord> records) {
  OBS_SPAN("columnar.pack");
  static obs::Counter packs = obs::counter("columnar.packs");
  packs.add();

  std::vector<SectionOut> sections;
  sections.reserve(kSecLocusData);
  sections.push_back({kSecSpec, pack_spec(spec)});

  // Record columns, stored in the log's canonical (time-sorted) order so
  // loads need no re-sort and duplicate-time ordering round-trips exactly.
  RecordColumns columns({}, records);
  const auto add_vec = [&sections](std::uint32_t id, const auto& values) {
    SectionOut out{id, {}};
    append_vec(out.bytes, values);
    sections.push_back(std::move(out));
  };
  add_vec(kSecTimes, columns.times);
  add_vec(kSecNodes, columns.nodes);
  add_vec(kSecCategories, columns.categories);
  add_vec(kSecTtr, columns.ttr);
  add_vec(kSecSlotOffsets, columns.slot_offsets);
  add_vec(kSecSlotData, columns.slot_data);
  add_vec(kSecLocusOffsets, columns.locus_offsets);
  sections.push_back({kSecLocusData, std::move(columns.locus_data)});

  // Assemble: header, table (checksummed), then 8-aligned payloads.
  const std::size_t table_bytes = sections.size() * kTableEntryBytes;
  std::string table;
  table.reserve(table_bytes);
  std::size_t offset = kHeaderBytes + table_bytes;  // both multiples of 8
  for (const SectionOut& section : sections) {
    append_pod(table, section.id);
    append_pod(table, std::uint32_t{0});
    append_pod(table, static_cast<std::uint64_t>(offset));
    append_pod(table, static_cast<std::uint64_t>(section.bytes.size()));
    append_pod(table, section_checksum(section.bytes.data(), section.bytes.size()));
    offset = align8(offset + section.bytes.size());
  }

  std::string out;
  out.reserve(offset);
  append_raw(out, ColumnarSnapshot::kMagic.data(), ColumnarSnapshot::kMagic.size());
  append_pod(out, ColumnarSnapshot::kFormatVersion);
  append_pod(out, kEndianTag);
  append_pod(out, static_cast<std::uint64_t>(records.size()));
  append_pod(out, static_cast<std::uint32_t>(sections.size()));
  append_pod(out, std::uint32_t{0});  // flags
  append_pod(out, section_checksum(table.data(), table.size()));
  append_pod(out, std::uint64_t{0});  // reserved
  out += table;
  for (const SectionOut& section : sections) {
    out += section.bytes;
    out.append(align8(out.size()) - out.size(), '\0');
  }
  return out;
}

std::string pack_columnar(const FailureLog& log, const LogIndex* /*index*/) {
  return pack_columnar(log.spec(), log.records());
}

Result<void> write_columnar_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return Error(ErrorKind::kIo, "cannot open '" + tmp + "' for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Error(ErrorKind::kIo, "short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error(ErrorKind::kIo, "cannot rename '" + tmp + "' to '" + path + "'");
  }
  return {};
}

// --- Loading -----------------------------------------------------------

bool ColumnarSnapshot::sniff(std::string_view prefix) noexcept {
  return prefix.size() >= kMagic.size() && prefix.substr(0, kMagic.size()) == kMagic;
}

ColumnarSnapshot::~ColumnarSnapshot() {
#if TSUFAIL_HAS_MMAP
  if (map_addr_ != nullptr) ::munmap(map_addr_, map_len_);
#endif
}

Result<ColumnarSnapshotPtr> ColumnarSnapshot::from_bytes(std::string_view bytes) {
  std::shared_ptr<ColumnarSnapshot> snapshot(new ColumnarSnapshot());
  // Owned storage is a word vector so the base stays 8-byte aligned and
  // the zero-copy pointer casts below are valid for every column type.
  snapshot->owned_.resize((bytes.size() + 7) / 8, 0);
  // An empty input leaves owned_ without storage; memcpy may not be
  // handed its null data pointer even for a zero-byte copy.
  if (!bytes.empty()) std::memcpy(snapshot->owned_.data(), bytes.data(), bytes.size());
  snapshot->data_ = reinterpret_cast<const char*>(snapshot->owned_.data());
  snapshot->byte_size_ = bytes.size();
  if (auto parsed = snapshot->parse(); !parsed.ok()) return parsed.error();
  return ColumnarSnapshotPtr(std::move(snapshot));
}

Result<ColumnarSnapshotPtr> ColumnarSnapshot::open(const std::string& path) {
  OBS_SPAN("columnar.open");
  static obs::Counter opens = obs::counter("columnar.opens");
  opens.add();
#if TSUFAIL_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(kHeaderBytes)) {
      ::close(fd);
      return Error(ErrorKind::kParse, "'" + path + "' is too small to be a columnar snapshot");
    }
    const auto len = static_cast<std::size_t>(st.st_size);
    void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr != MAP_FAILED) {
      std::shared_ptr<ColumnarSnapshot> snapshot(new ColumnarSnapshot());
      snapshot->map_addr_ = addr;
      snapshot->map_len_ = len;
      snapshot->data_ = static_cast<const char*>(addr);
      snapshot->byte_size_ = len;
      snapshot->mapped_ = true;
      if (auto parsed = snapshot->parse(); !parsed.ok())
        return parsed.error().with_context("snapshot '" + path + "'");
      return ColumnarSnapshotPtr(std::move(snapshot));
    }
  }
#endif
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in)
    return Error(ErrorKind::kIo, "cannot open snapshot '" + path + "'");
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::shared_ptr<ColumnarSnapshot> snapshot(new ColumnarSnapshot());
  snapshot->owned_.resize((size + 7) / 8, 0);
  if (!in.read(reinterpret_cast<char*>(snapshot->owned_.data()),
               static_cast<std::streamsize>(size)))
    return Error(ErrorKind::kIo, "cannot read snapshot '" + path + "'");
  snapshot->data_ = reinterpret_cast<const char*>(snapshot->owned_.data());
  snapshot->byte_size_ = size;
  if (auto parsed = snapshot->parse(); !parsed.ok())
    return parsed.error().with_context("snapshot '" + path + "'");
  return ColumnarSnapshotPtr(std::move(snapshot));
}

Result<void> ColumnarSnapshot::parse() {
  OBS_SPAN("columnar.parse");
  if (byte_size_ < kHeaderBytes || !sniff({data_, byte_size_}))
    return Error(ErrorKind::kParse, "not a columnar snapshot (bad magic)");
  const auto version = read_pod<std::uint32_t>(data_ + 8);
  if (version != kFormatVersion)
    return Error(ErrorKind::kParse, "unsupported snapshot format version " +
                                        std::to_string(version) + " (reader speaks " +
                                        std::to_string(kFormatVersion) + ")");
  if (read_pod<std::uint32_t>(data_ + 12) != kEndianTag)
    return Error(ErrorKind::kParse,
                 "snapshot was written on a foreign-endian machine; re-pack from CSV");
  const auto record_count = read_pod<std::uint64_t>(data_ + 16);
  const auto section_count = read_pod<std::uint32_t>(data_ + 24);
  // data_ + 28 holds the flags word: bit 0 marked the retired index
  // sections, which are ignored.
  const auto table_checksum = read_pod<std::uint64_t>(data_ + 32);
  if (section_count == 0 || section_count > kMaxSections)
    return Error(ErrorKind::kParse, "implausible snapshot section count " +
                                        std::to_string(section_count));
  if (record_count > std::numeric_limits<std::uint32_t>::max())
    return Error(ErrorKind::kParse, "snapshot record count exceeds the u32 position space");
  const std::size_t table_bytes = section_count * kTableEntryBytes;
  if (byte_size_ < kHeaderBytes + table_bytes)
    return Error(ErrorKind::kParse, "snapshot truncated inside the section table");
  if (section_checksum(data_ + kHeaderBytes, table_bytes) != table_checksum)
    return Error(ErrorKind::kValidation, "snapshot section table checksum mismatch");

  const auto n = static_cast<std::size_t>(record_count);

  // Section table: bounds, alignment, uniqueness, checksums.
  struct SectionView {
    const char* data = nullptr;
    std::size_t size = 0;
    bool present = false;
  };
  std::array<SectionView, kMaxSectionId + 1> views{};
  std::size_t content_end = kHeaderBytes + table_bytes;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const char* entry = data_ + kHeaderBytes + s * kTableEntryBytes;
    const auto id = read_pod<std::uint32_t>(entry);
    const auto offset = read_pod<std::uint64_t>(entry + 8);
    const auto size = read_pod<std::uint64_t>(entry + 16);
    const auto checksum = read_pod<std::uint64_t>(entry + 24);
    if (id == 0 || id > kMaxSectionId)
      return Error(ErrorKind::kParse, "snapshot carries unknown section id " +
                                          std::to_string(id) +
                                          " (format version mismatch?)");
    if (views[id].present)
      return Error(ErrorKind::kParse, "duplicate snapshot section id " + std::to_string(id));
    if (offset % 8 != 0 || offset > byte_size_ || size > byte_size_ - offset)
      return Error(ErrorKind::kParse, "snapshot section " + std::to_string(id) +
                                          " is out of bounds (truncated file?)");
    if (section_checksum(data_ + offset, static_cast<std::size_t>(size)) != checksum)
      return Error(ErrorKind::kValidation,
                   "snapshot section " + std::to_string(id) + " checksum mismatch");
    views[id] = {data_ + offset, static_cast<std::size_t>(size), true};
    content_end = std::max(content_end, static_cast<std::size_t>(offset + size));
  }

  // The writer pads the last section to 8 bytes and stops, so a file cut
  // inside that padding is as truncated as one cut inside a section.
  if (byte_size_ != align8(content_end))
    return Error(ErrorKind::kParse, "snapshot size disagrees with its section table "
                                    "(truncated file?)");

  const auto require = [&views](std::uint32_t id, std::size_t bytes,
                                const char* what) -> Result<SectionView> {
    const SectionView& view = views[id];
    if (!view.present)
      return Error(ErrorKind::kParse, std::string("snapshot is missing the ") + what +
                                          " section");
    if (view.size != bytes)
      return Error(ErrorKind::kParse, std::string("snapshot ") + what +
                                          " section has the wrong size");
    return view;
  };
  const auto span_of = [](const SectionView& view, auto tag) {
    using T = decltype(tag);
    return std::span<const T>(reinterpret_cast<const T*>(view.data), view.size / sizeof(T));
  };

  // --- Record columns --------------------------------------------------
  const SectionView& spec_view = views[kSecSpec];
  if (!spec_view.present)
    return Error(ErrorKind::kParse, "snapshot is missing the spec section");
  auto spec = parse_spec(spec_view.data, spec_view.size);
  if (!spec.ok()) return spec.error();
  spec_ = std::move(spec).value();

  ColumnsView& c = columns_;
  auto times = require(kSecTimes, n * 8, "times");
  if (!times.ok()) return times.error();
  c.times = span_of(times.value(), std::int64_t{});
  auto nodes = require(kSecNodes, n * 4, "nodes");
  if (!nodes.ok()) return nodes.error();
  c.nodes = span_of(nodes.value(), std::int32_t{});
  auto categories = require(kSecCategories, n, "categories");
  if (!categories.ok()) return categories.error();
  c.categories = span_of(categories.value(), std::uint8_t{});
  auto ttr = require(kSecTtr, n * 8, "ttr");
  if (!ttr.ok()) return ttr.error();
  c.ttr = span_of(ttr.value(), double{});

  auto slot_offsets = require(kSecSlotOffsets, (n + 1) * 4, "slot_offsets");
  if (!slot_offsets.ok()) return slot_offsets.error();
  c.slot_offsets = span_of(slot_offsets.value(), std::uint32_t{});
  if (!views[kSecSlotData].present)
    return Error(ErrorKind::kParse, "snapshot is missing the slot_data section");
  c.slot_data = span_of(views[kSecSlotData], std::int32_t{});
  auto locus_offsets = require(kSecLocusOffsets, (n + 1) * 4, "locus_offsets");
  if (!locus_offsets.ok()) return locus_offsets.error();
  c.locus_offsets = span_of(locus_offsets.value(), std::uint32_t{});
  if (!views[kSecLocusData].present)
    return Error(ErrorKind::kParse, "snapshot is missing the locus_data section");
  c.locus_data = std::string_view(views[kSecLocusData].data, views[kSecLocusData].size);

  // Structural invariants.  Checksums catch corruption; these checks make
  // even a hand-crafted snapshot memory-safe to analyze (no reference
  // through any offset can leave its section) and refuse every record
  // validate_record refuses, except by the window.
  std::uint64_t vocabulary = 0;  // bit k: category k is the machine's
  for (Category category : categories_for(spec_.machine))
    vocabulary |= std::uint64_t{1} << static_cast<unsigned>(category);
  for (std::size_t i = 1; i < n; ++i)
    if (c.times[i] < c.times[i - 1])
      return Error(ErrorKind::kValidation, "snapshot times are not sorted ascending");
  for (std::uint32_t i = 0; i < n; ++i) {
    if (c.nodes[i] < 0 || c.nodes[i] >= spec_.node_count)
      return Error(ErrorKind::kValidation,
                   "snapshot record " + std::to_string(i) + " names node " +
                       std::to_string(c.nodes[i]) + " outside [0, " +
                       std::to_string(spec_.node_count) + ")");
    if (c.categories[i] >= kCategoryCount || (vocabulary >> c.categories[i] & 1) == 0)
      return Error(ErrorKind::kValidation,
                   "snapshot record " + std::to_string(i) + " has category byte " +
                       std::to_string(c.categories[i]) + " outside the " + spec_.name +
                       " vocabulary");
    if (!(c.ttr[i] >= 0.0) || c.ttr[i] > 1e12)
      return Error(ErrorKind::kValidation,
                   "snapshot record " + std::to_string(i) + " has invalid TTR");
  }
  const auto check_csr = [n](std::span<const std::uint32_t> offsets, std::size_t data_size,
                             const char* what) -> Result<void> {
    if (offsets[0] != 0)
      return Error(ErrorKind::kValidation,
                   std::string("snapshot ") + what + " offsets do not start at 0");
    for (std::size_t i = 0; i < n; ++i)
      if (offsets[i + 1] < offsets[i])
        return Error(ErrorKind::kValidation,
                     std::string("snapshot ") + what + " offsets are not monotone");
    if (offsets[n] != data_size)
      return Error(ErrorKind::kValidation, std::string("snapshot ") + what +
                                               " offsets disagree with the data section");
    return {};
  };
  if (auto r = check_csr(c.slot_offsets, c.slot_data.size(), "slot"); !r.ok()) return r.error();
  if (auto r = check_csr(c.locus_offsets, c.locus_data.size(), "locus"); !r.ok())
    return r.error();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto slots = c.gpu_slots_of(i);
    if (!slots.empty() && !is_gpu_related(c.category_of(i)))
      return Error(ErrorKind::kValidation, "snapshot record " + std::to_string(i) +
                                               " lists GPU slots on a non-GPU category");
    for (std::size_t a = 0; a < slots.size(); ++a) {
      if (slots[a] < 0 || slots[a] >= spec_.gpus_per_node)
        return Error(ErrorKind::kValidation, "snapshot record " + std::to_string(i) +
                                                 " names a GPU slot outside the machine");
      for (std::size_t b = a + 1; b < slots.size(); ++b)
        if (slots[a] == slots[b])
          return Error(ErrorKind::kValidation, "snapshot record " + std::to_string(i) +
                                                   " repeats a GPU slot");
    }
  }
  return {};
}

FailureLog ColumnarSnapshot::to_log() const {
  OBS_SPAN("columnar.to_log");
  std::vector<FailureRecord> records(size());
  for (std::uint32_t i = 0; i < size(); ++i) {
    FailureRecord& record = records[i];
    record.time = TimePoint(columns_.times[i]);
    record.node = columns_.nodes[i];
    record.category = columns_.category_of(i);
    record.ttr_hours = columns_.ttr[i];
    const auto slots = columns_.gpu_slots_of(i);
    record.gpu_slots.assign(slots.begin(), slots.end());
    record.root_locus = columns_.root_locus_of(i);
  }
  return FailureLog::from_sorted(spec_, std::move(records));
}

}  // namespace tsufail::data
