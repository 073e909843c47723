// Tests for the columnar snapshot format: pack/load round trips (bytes,
// files, mapped vs owned buffers), index adoption, files from older builds
// that carry the retired index sections, and rejection of truncated or
// corrupted inputs.  Bit-compatibility of the *analyses* run on a
// loaded snapshot is the differential oracle's job
// (testkit::run_oracle's snapshot_roundtrip check); this file owns the
// format itself.
#include "data/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "data/log_index.h"
#include "data/log_io.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "testkit/generator.h"

namespace tsufail::data {
namespace {

/// Field-by-field record equality, TTR compared bitwise.
void expect_same_records(const FailureLog& a, const FailureLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    EXPECT_EQ(x.time, y.time) << "record " << i;
    EXPECT_EQ(x.node, y.node) << "record " << i;
    EXPECT_EQ(x.category, y.category) << "record " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.ttr_hours), std::bit_cast<std::uint64_t>(y.ttr_hours))
        << "record " << i;
    EXPECT_EQ(x.gpu_slots, y.gpu_slots) << "record " << i;
    EXPECT_EQ(x.root_locus, y.root_locus) << "record " << i;
  }
}

TEST(ColumnarPack, RoundTripsGeneratedLogs) {
  for (const auto& model : {sim::tsubame2_model(), sim::tsubame3_model()}) {
    auto log = sim::generate_log(model, 7).value();
    auto snap = ColumnarSnapshot::from_bytes(pack_columnar(log));
    ASSERT_TRUE(snap.ok()) << snap.error().to_string();
    EXPECT_EQ(snap.value()->size(), log.size());
    EXPECT_EQ(snap.value()->spec().machine, log.spec().machine);
    EXPECT_EQ(snap.value()->spec().node_count, log.spec().node_count);
    EXPECT_EQ(snap.value()->spec().name, log.spec().name);
    expect_same_records(log, snap.value()->to_log());
  }
}

TEST(ColumnarPack, RoundTripsEmptyLog) {
  auto log = FailureLog::create(tsubame3_spec(), {}).value();
  auto snap = ColumnarSnapshot::from_bytes(pack_columnar(log));
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  EXPECT_EQ(snap.value()->size(), 0u);
  EXPECT_TRUE(snap.value()->to_log().empty());
  EXPECT_TRUE(LogIndex(snap.value()).empty());
}

/// The section ids a snapshot's table lists, in order.
std::vector<std::uint32_t> section_ids(const std::string& bytes) {
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 24, sizeof count);
  std::vector<std::uint32_t> ids(count);
  for (std::uint32_t s = 0; s < count; ++s) std::memcpy(&ids[s], bytes.data() + 48 + 32 * s, 4);
  return ids;
}

TEST(ColumnarPack, WritesTheRecordSectionsOnly) {
  auto log = sim::generate_log(sim::tsubame2_model(), 11).value();
  const std::string bytes = pack_columnar(log);
  EXPECT_EQ(section_ids(bytes), (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  std::uint32_t flags = 1;
  std::memcpy(&flags, bytes.data() + 28, sizeof flags);
  EXPECT_EQ(flags, 0u);
  // The index argument is ignored.
  const LogIndex index(log);
  EXPECT_EQ(pack_columnar(log, &index), bytes);
}

std::string fixture_bytes() {
  std::ifstream in(std::string(TSUFAIL_FIXTURES_DIR) + "/tsubame3_seed1_indexed.tsnap",
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(ColumnarLoad, IndexSectionsFromOlderBuildsAreIgnored) {
  // Packed by a build that also wrote the index sections (ids 10-13).
  const std::string legacy = fixture_bytes();
  EXPECT_EQ(section_ids(legacy),
            (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}));
  auto snap = ColumnarSnapshot::from_bytes(legacy);
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  EXPECT_EQ(snap.value()->size(), 338u);
  const FailureLog log = snap.value()->to_log();
  const LogIndex built(log);
  const LogIndex adopted(snap.value());
  ASSERT_EQ(adopted.size(), built.size());
  EXPECT_TRUE(std::equal(adopted.hours().begin(), adopted.hours().end(), built.hours().begin()));
  for (int month = 1; month <= 12; ++month) {
    const auto a = adopted.by_month(month);
    const auto b = built.by_month(month);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "month " << month;
  }
  // Re-packing drops the retired sections and keeps the record bytes.
  const std::string repacked = pack_columnar(log);
  EXPECT_EQ(section_ids(repacked).size(), 9u);
  EXPECT_LT(repacked.size(), legacy.size());
  expect_same_records(log, ColumnarSnapshot::from_bytes(repacked).value()->to_log());
}

TEST(ColumnarLoad, RetiredSectionsAreStillChecksummed) {
  std::string legacy = fixture_bytes();
  const auto ids = section_ids(legacy);
  const auto at = std::find(ids.begin(), ids.end(), 10u) - ids.begin();
  ASSERT_LT(static_cast<std::size_t>(at), ids.size());
  std::uint64_t offset = 0;
  std::memcpy(&offset, legacy.data() + 48 + 32 * at + 8, sizeof offset);
  legacy[offset] = static_cast<char>(legacy[offset] ^ 0x01);
  auto snap = ColumnarSnapshot::from_bytes(legacy);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.error().to_string().find("section 10 checksum"), std::string::npos)
      << snap.error().to_string();
}

TEST(ColumnarPack, EdgeCaseCorpusRoundTripsByteIdentically) {
  for (Machine machine : {Machine::kTsubame2, Machine::kTsubame3}) {
    for (const auto& edge : testkit::edge_case_logs(machine)) {
      auto snap = ColumnarSnapshot::from_bytes(pack_columnar(edge.log));
      ASSERT_TRUE(snap.ok()) << edge.name << ": " << snap.error().to_string();
      // The canonical CSV rendering of the materialized log must be
      // byte-identical to the original's.
      EXPECT_EQ(write_log_csv(edge.log), write_log_csv(snap.value()->to_log())) << edge.name;
      EXPECT_EQ(LogIndex(snap.value()).size(), edge.log.size()) << edge.name;
    }
  }
}

TEST(ColumnarPack, FromSortedPreservesTieOrder) {
  // Two records at the same instant: from_sorted must keep the given
  // order (the pack/load path relies on this for byte-identity).
  auto log = sim::generate_log(sim::tsubame3_model(), 13).value();
  std::vector<FailureRecord> records(log.records().begin(), log.records().end());
  FailureLog adopted = FailureLog::from_sorted(log.spec(), records);
  expect_same_records(log, adopted);
}

TEST(ColumnarFile, MappedAndOwnedLoadsAgree) {
  auto log = sim::generate_log(sim::tsubame3_model(), 5).value();
  const std::string bytes = pack_columnar(log);
  const std::string path = std::string(::testing::TempDir()) + "columnar_map_owned.tsnap";
  ASSERT_TRUE(write_columnar_file(path, bytes).ok());

  auto mapped = ColumnarSnapshot::open(path);
  auto owned = ColumnarSnapshot::from_bytes(bytes);
  std::remove(path.c_str());
  ASSERT_TRUE(mapped.ok()) << mapped.error().to_string();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped.value()->mapped());
#endif
  ASSERT_TRUE(owned.ok()) << owned.error().to_string();
  EXPECT_FALSE(owned.value()->mapped());
  expect_same_records(mapped.value()->to_log(), owned.value()->to_log());
  EXPECT_EQ(write_log_csv(mapped.value()->to_log()), write_log_csv(log));
}

TEST(ColumnarFile, SniffDetectsSnapshots) {
  auto log = FailureLog::create(tsubame2_spec(), {}).value();
  const std::string bytes = pack_columnar(log);
  EXPECT_TRUE(ColumnarSnapshot::sniff(bytes));
  EXPECT_FALSE(ColumnarSnapshot::sniff("machine,timestamp,node\n"));
  EXPECT_FALSE(ColumnarSnapshot::sniff(""));
}

TEST(ColumnarReject, TruncatedBytes) {
  // The Tsubame-3 log's locus bytes end off an 8-byte boundary, so its
  // last byte is section padding: a cut there must be refused too.
  for (const auto& model : {sim::tsubame2_model(), sim::tsubame3_model()}) {
    auto log = sim::generate_log(model, 3).value();
    const std::string bytes = pack_columnar(log);
    // Every strictly shorter prefix must be rejected, never crash.
    for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{47},
                             bytes.size() / 2, bytes.size() - 1}) {
      auto snap = ColumnarSnapshot::from_bytes(std::string_view(bytes).substr(0, keep));
      EXPECT_FALSE(snap.ok()) << "accepted a " << keep << "-byte prefix";
    }
  }
}

TEST(ColumnarReject, CorruptedPayloadFailsChecksum) {
  auto log = sim::generate_log(sim::tsubame3_model(), 9).value();
  std::string bytes = pack_columnar(log);
  // Flip one bit in the back half (payload, past header + table).
  bytes[bytes.size() - 9] ^= 0x40;
  auto snap = ColumnarSnapshot::from_bytes(bytes);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.error().to_string().find("checksum"), std::string::npos)
      << snap.error().to_string();
}

TEST(ColumnarReject, WrongMagicAndVersion) {
  auto log = FailureLog::create(tsubame2_spec(), {}).value();
  std::string bytes = pack_columnar(log);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ColumnarSnapshot::from_bytes(bad_magic).ok());
  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(0x7F);  // version field follows the magic
  EXPECT_FALSE(ColumnarSnapshot::from_bytes(bad_version).ok());
}

TEST(ColumnarReject, MissingFileIsIoError) {
  auto snap = ColumnarSnapshot::open("/nonexistent/columnar.tsnap");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.error().kind(), ErrorKind::kIo);
}

}  // namespace
}  // namespace tsufail::data
