// LogIndex invariant tests: the contract documented in data/log_index.h
// (time-order preservation, bit-identical record columns and precomputed
// arrays, group partitions, subset relations) on both calibrated machines
// plus handcrafted edge cases — and the equivalence gates: an index grown
// via LogIndex::extend by suffix logs (one epoch or many) or adopted from
// a packed snapshot is bit-identical to one built from scratch over the
// same records.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/columnar.h"
#include "data/log_index.h"
#include "data/snapshot.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::data {
namespace {

FailureLog generated(Machine machine) {
  const auto model =
      machine == Machine::kTsubame2 ? sim::tsubame2_model() : sim::tsubame3_model();
  return sim::generate_log(model, 7).value();
}

bool strictly_ascending(std::span<const std::uint32_t> positions) {
  return std::adjacent_find(positions.begin(), positions.end(),
                            [](std::uint32_t a, std::uint32_t b) { return a >= b; }) ==
         positions.end();
}

// The index owns or adopts its columns and keeps no reference to the
// log, so a temporary log indexes as well as a named one.
static_assert(std::is_constructible_v<LogIndex, FailureLog&&>);
static_assert(std::is_constructible_v<LogIndex, const FailureLog&>);
static_assert(std::is_constructible_v<LogIndex, ColumnarSnapshotPtr>);

class LogIndexInvariants : public ::testing::TestWithParam<Machine> {};

TEST_P(LogIndexInvariants, ArraysAlignWithRecordsBitIdentically) {
  const auto log = generated(GetParam());
  const LogIndex index(log);
  ASSERT_EQ(index.size(), log.size());
  ASSERT_EQ(index.hours().size(), log.size());
  ASSERT_EQ(index.ttr().size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the arrays must be bit-identical
    // to what the analyzers used to compute per record.
    EXPECT_EQ(index.hours()[i], hours_between(log.spec().log_start, log.records()[i].time));
    EXPECT_EQ(index.ttr()[i], log.records()[i].ttr_hours);
  }
  EXPECT_TRUE(std::is_sorted(index.hours().begin(), index.hours().end()));
}

TEST_P(LogIndexInvariants, RecordColumnsMatchTheRecords) {
  const auto log = generated(GetParam());
  const LogIndex index(log);
  for (std::uint32_t i = 0; i < index.size(); ++i) {
    const FailureRecord& record = log.records()[i];
    const auto slots = index.gpu_slots_of(i);
    EXPECT_EQ(index.category_of(i), record.category) << "record " << i;
    EXPECT_TRUE(std::equal(slots.begin(), slots.end(), record.gpu_slots.begin(),
                           record.gpu_slots.end()))
        << "record " << i;
    EXPECT_EQ(index.root_locus_of(i), record.root_locus) << "record " << i;
  }
}

TEST_P(LogIndexInvariants, CategoryGroupsPartitionPositions) {
  const auto log = generated(GetParam());
  const LogIndex index(log);
  std::size_t total = 0;
  for (std::size_t c = 0; c <= static_cast<std::size_t>(Category::kUnknown); ++c) {
    const auto category = static_cast<Category>(c);
    const auto positions = index.by_category(category);
    EXPECT_TRUE(strictly_ascending(positions));
    EXPECT_EQ(index.count(category), positions.size());
    for (std::uint32_t position : positions)
      EXPECT_EQ(log.records()[position].category, category);
    total += positions.size();
  }
  EXPECT_EQ(total, index.size());
}

TEST_P(LogIndexInvariants, ClassGroupsPartitionPositions) {
  const auto log = generated(GetParam());
  const LogIndex index(log);
  std::size_t total = 0;
  for (FailureClass cls :
       {FailureClass::kHardware, FailureClass::kSoftware, FailureClass::kUnknown}) {
    const auto positions = index.by_class(cls);
    EXPECT_TRUE(strictly_ascending(positions));
    for (std::uint32_t position : positions)
      EXPECT_EQ(log.records()[position].failure_class(), cls);
    total += positions.size();
  }
  EXPECT_EQ(total, index.size());
}

TEST_P(LogIndexInvariants, MonthGroupsPartitionPositions) {
  const auto log = generated(GetParam());
  const LogIndex index(log);
  std::size_t total = 0;
  for (int month = 1; month <= 12; ++month) {
    const auto positions = index.by_month(month);
    EXPECT_TRUE(strictly_ascending(positions));
    for (std::uint32_t position : positions)
      EXPECT_EQ(log.records()[position].time.month(), month);
    total += positions.size();
  }
  EXPECT_EQ(total, index.size());
}

TEST_P(LogIndexInvariants, NodeGroupsAscendAndPartitionPositions) {
  const auto log = generated(GetParam());
  const LogIndex index(log);
  std::size_t total = 0;
  int previous_node = -1;
  for (const auto& group : index.nodes()) {
    EXPECT_GT(group.node, previous_node);  // ascending node ids
    previous_node = group.node;
    const auto positions = index.positions_of(group);
    ASSERT_EQ(positions.size(), group.count);
    EXPECT_GT(group.count, 0u);
    EXPECT_TRUE(strictly_ascending(positions));
    for (std::uint32_t position : positions)
      EXPECT_EQ(log.records()[position].node, group.node);
    total += positions.size();
  }
  EXPECT_EQ(total, index.size());
}

TEST_P(LogIndexInvariants, GpuGroupsMatchPredicatesAndNest) {
  const auto log = generated(GetParam());
  const LogIndex index(log);

  std::vector<std::uint32_t> expected_attributed, expected_multi;
  for (std::uint32_t i = 0; i < index.size(); ++i) {
    const auto& record = log.records()[i];
    if (record.gpu_related() && !record.gpu_slots.empty()) {
      expected_attributed.push_back(i);
      if (record.multi_gpu()) expected_multi.push_back(i);
    }
  }
  const auto attributed = index.gpu_attributed();
  const auto multi = index.multi_gpu();
  EXPECT_TRUE(std::equal(attributed.begin(), attributed.end(), expected_attributed.begin(),
                         expected_attributed.end()));
  EXPECT_TRUE(std::equal(multi.begin(), multi.end(), expected_multi.begin(),
                         expected_multi.end()));
  // multi_gpu is a subset of gpu_attributed by construction.
  EXPECT_TRUE(std::includes(attributed.begin(), attributed.end(), multi.begin(), multi.end()));
}

TEST_P(LogIndexInvariants, GatherHelpersPreserveOrder) {
  const auto log = generated(GetParam());
  const LogIndex index(log);
  for (FailureClass cls : {FailureClass::kHardware, FailureClass::kSoftware}) {
    const auto positions = index.by_class(cls);
    const auto hours = index.hours_of(positions);
    const auto ttr = index.ttr_of(positions);
    ASSERT_EQ(hours.size(), positions.size());
    ASSERT_EQ(ttr.size(), positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      EXPECT_EQ(hours[i], index.hours()[positions[i]]);
      EXPECT_EQ(ttr[i], index.ttr()[positions[i]]);
    }
  }
}

// Asserts every record column, precomputed array and group layout of
// `merged` is bit-identical to `full` — the contract of every way to
// build an index (shared builder, canonical arena order) is identity,
// not approximate agreement.
void expect_bit_identical(const LogIndex& full, const LogIndex& merged) {
  ASSERT_EQ(full.size(), merged.size());
  for (std::uint32_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full.hours()[i], merged.hours()[i]) << "hours[" << i << "]";
    EXPECT_EQ(full.ttr()[i], merged.ttr()[i]) << "ttr[" << i << "]";
    EXPECT_EQ(full.category_of(i), merged.category_of(i)) << "category[" << i << "]";
    const auto a = full.gpu_slots_of(i);
    const auto b = merged.gpu_slots_of(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "slots[" << i << "]";
    EXPECT_EQ(full.root_locus_of(i), merged.root_locus_of(i)) << "locus[" << i << "]";
  }
  for (std::size_t c = 0; c <= static_cast<std::size_t>(Category::kUnknown); ++c) {
    const auto category = static_cast<Category>(c);
    const auto a = full.by_category(category);
    const auto b = merged.by_category(category);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "by_category " << to_string(category);
  }
  for (std::size_t c = 0; c <= static_cast<std::size_t>(FailureClass::kUnknown); ++c) {
    const auto cls = static_cast<FailureClass>(c);
    const auto a = full.by_class(cls);
    const auto b = merged.by_class(cls);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "by_class " << to_string(cls);
  }
  for (int month = 1; month <= 12; ++month) {
    const auto a = full.by_month(month);
    const auto b = merged.by_month(month);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "month " << month;
  }
  {
    const auto a = full.gpu_attributed();
    const auto b = merged.gpu_attributed();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "gpu_attributed";
  }
  {
    const auto a = full.multi_gpu();
    const auto b = merged.multi_gpu();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "multi_gpu";
  }
  const auto full_nodes = full.nodes();
  const auto merged_nodes = merged.nodes();
  ASSERT_EQ(full_nodes.size(), merged_nodes.size());
  for (std::size_t i = 0; i < full_nodes.size(); ++i) {
    EXPECT_EQ(full_nodes[i].node, merged_nodes[i].node) << "nodes[" << i << "]";
    const auto a = full.positions_of(full_nodes[i]);
    const auto b = merged.positions_of(merged_nodes[i]);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "positions of node " << full_nodes[i].node;
  }
}

TEST_P(LogIndexInvariants, ExtendMatchesFullRebuildAtEverySplit) {
  const auto log = generated(GetParam());
  const LogIndex full(log);
  const auto records = log.records();
  const std::size_t n = records.size();
  ASSERT_GT(n, 2u);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, n / 3, n / 2, n - 1, n}) {
    SCOPED_TRACE("split=" + std::to_string(split));
    auto base = FailureLog::create(
        log.spec(), {records.begin(), records.begin() + static_cast<std::ptrdiff_t>(split)});
    ASSERT_TRUE(base.ok()) << base.error().to_string();
    auto suffix = FailureLog::create(
        log.spec(), {records.begin() + static_cast<std::ptrdiff_t>(split), records.end()});
    ASSERT_TRUE(suffix.ok()) << suffix.error().to_string();
    const LogIndex merged = LogIndex::extend(LogIndex(base.value()), suffix.value());
    expect_bit_identical(full, merged);
  }
}

TEST_P(LogIndexInvariants, RepeatedExtendsMatchFullRebuild) {
  // The serve shape: many small sealed epochs chained onto each other,
  // each extend seeded from the previous incremental index.
  const auto log = generated(GetParam());
  const LogIndex full(log);
  const auto records = log.records();
  const std::size_t n = records.size();

  // Each epoch's suffix log dies after its extend: an index holds no
  // reference to the records it was built from.
  LogIndex index(FailureLog::create(log.spec(), {}).value());
  std::size_t epochs = 1;
  constexpr std::size_t kEpoch = 37;  // deliberately not a divisor of n
  for (std::size_t at = 0; at < n; at += kEpoch) {
    const std::size_t end = std::min(at + kEpoch, n);
    auto suffix = FailureLog::create(log.spec(),
                                     {records.begin() + static_cast<std::ptrdiff_t>(at),
                                      records.begin() + static_cast<std::ptrdiff_t>(end)});
    ASSERT_TRUE(suffix.ok()) << suffix.error().to_string();
    index = LogIndex::extend(index, suffix.value());
    ++epochs;
  }
  EXPECT_EQ(epochs, 1 + (n + kEpoch - 1) / kEpoch);
  expect_bit_identical(full, index);
}

TEST_P(LogIndexInvariants, ExtendRequiresTheSeamAndTheMachine) {
  const auto log = generated(GetParam());
  const auto records = log.records();
  const auto split = static_cast<std::ptrdiff_t>(records.size() / 2);
  const LogIndex base(
      FailureLog::create(log.spec(), {records.begin(), records.begin() + split}).value());
  // A suffix whose earliest record is one second before the base's last.
  std::vector<FailureRecord> early(records.begin() + split, records.end());
  early.front().time = records[split - 1].time.plus_seconds(-1);
  EXPECT_THROW(LogIndex::extend(base, FailureLog::create(log.spec(), early).value()),
               std::logic_error);
  const auto other = GetParam() == Machine::kTsubame2 ? tsubame3_spec() : tsubame2_spec();
  EXPECT_THROW(LogIndex::extend(base, FailureLog::create(other, {}).value()), std::logic_error);
}

TEST_P(LogIndexInvariants, AdoptedSnapshotMatchesTheBuiltIndex) {
  const auto log = generated(GetParam());
  auto snapshot = ColumnarSnapshot::from_bytes(pack_columnar(log));
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().to_string();
  const LogIndex adopted(snapshot.value());
  expect_bit_identical(LogIndex(log), adopted);
  // Zero-copy: the record columns are the snapshot's bytes.
  EXPECT_EQ(adopted.ttr().data(), snapshot.value()->ttr().data());
}

INSTANTIATE_TEST_SUITE_P(BothMachines, LogIndexInvariants,
                         ::testing::Values(Machine::kTsubame2, Machine::kTsubame3));

TEST(LogSnapshot, ExtendBumpsEpochAndMatchesFullBuild) {
  const auto log = generated(Machine::kTsubame2);
  const auto records = log.records();
  const std::size_t split = records.size() / 2;

  auto base = LogSnapshot::build(
      FailureLog::create(log.spec(), {records.begin(),
                                      records.begin() + static_cast<std::ptrdiff_t>(split)})
          .value());
  ASSERT_TRUE(base.ok()) << base.error().to_string();
  EXPECT_EQ(base.value()->epoch(), 0u);

  auto extended = LogSnapshot::extend(
      *base.value(), {records.begin() + static_cast<std::ptrdiff_t>(split), records.end()});
  ASSERT_TRUE(extended.ok()) << extended.error().to_string();
  EXPECT_EQ(extended.value()->epoch(), 1u);
  ASSERT_EQ(extended.value()->size(), log.size());

  const LogIndex full(log);
  expect_bit_identical(full, extended.value()->index());

  // The base snapshot is untouched: readers holding it keep their view.
  EXPECT_EQ(base.value()->size(), split);
  EXPECT_EQ(base.value()->index().size(), split);
}

TEST(LogSnapshot, ExtendRefusesABadSuffixAndLeavesTheBaseAlone) {
  const auto log = generated(Machine::kTsubame2);
  const auto records = log.records();
  const auto split = static_cast<std::ptrdiff_t>(records.size() / 2);
  const std::vector<FailureRecord> prefix(records.begin(), records.begin() + split);
  const std::vector<FailureRecord> suffix(records.begin() + split, records.end());
  const auto base = LogSnapshot::build(FailureLog::create(log.spec(), prefix).value()).value();
  const LogIndex before(FailureLog::create(log.spec(), prefix).value());

  const auto expect_refused = [&](std::vector<FailureRecord> appended, const char* message) {
    SCOPED_TRACE(message);
    auto extended = LogSnapshot::extend(*base, std::move(appended));
    ASSERT_FALSE(extended.ok());
    EXPECT_EQ(extended.error().kind(), ErrorKind::kValidation) << extended.error().to_string();
    EXPECT_NE(extended.error().message().find(message), std::string::npos)
        << extended.error().to_string();
    EXPECT_EQ(base->epoch(), 0u);
    EXPECT_EQ(base->size(), prefix.size());
    expect_bit_identical(before, base->index());
  };

  // The seam: the suffix's earliest record predates the base's last.
  auto early = suffix;
  early.back().time = prefix.back().time.plus_seconds(-1);
  expect_refused(early, "suffix record predates the base log's last record");

  // A suffix record outside the machine's node range.
  auto off_machine = suffix;
  off_machine[off_machine.size() / 2].node = log.spec().node_count;
  expect_refused(off_machine, "node index");
}

TEST(LogIndex, EmptyLogYieldsEmptyGroups) {
  const auto log = FailureLog::create(tsubame2_spec(), {}).value();
  const LogIndex index(log);
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.hours().empty());
  EXPECT_TRUE(index.nodes().empty());
  EXPECT_TRUE(index.gpu_attributed().empty());
  EXPECT_EQ(index.count(Category::kGpu), 0u);
  EXPECT_TRUE(index.by_month(6).empty());
}

TEST(LogIndex, AbsentCategoryHasEmptySpan) {
  FailureRecord record;
  record.node = 3;
  record.category = Category::kGpu;
  record.time = parse_time("2012-06-01").value();
  record.ttr_hours = 4.0;
  record.gpu_slots = {0, 1};
  const auto log = FailureLog::create(tsubame2_spec(), {record}).value();
  const LogIndex index(log);
  EXPECT_EQ(index.count(Category::kGpu), 1u);
  EXPECT_EQ(index.count(Category::kCpu), 0u);
  EXPECT_TRUE(index.by_category(Category::kCpu).empty());
  ASSERT_EQ(index.multi_gpu().size(), 1u);
  EXPECT_EQ(index.multi_gpu()[0], 0u);
}

TEST(LogIndex, OutlivesTheLogAndSnapshotItWasBuiltFrom) {
  // ASan in CI would catch a view into a freed log or unmapped snapshot.
  const auto log = generated(Machine::kTsubame3);
  const LogIndex reference(log);
  const LogIndex from_temporary(FailureLog::create(log.spec(), {log.records().begin(),
                                                                log.records().end()})
                                    .value());
  expect_bit_identical(reference, from_temporary);
  auto snapshot = ColumnarSnapshot::from_bytes(pack_columnar(log));
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().to_string();
  const LogIndex adopted(std::move(snapshot).value());
  expect_bit_identical(reference, adopted);
}

TEST(LogIndex, CopySharesRefcountedArenaAndOutlivesOriginal) {
  const auto log = generated(Machine::kTsubame3);
  auto original = std::make_unique<LogIndex>(log);
  const LogIndex copy = *original;
  const auto a = original->by_class(FailureClass::kHardware);
  const auto b = copy.by_class(FailureClass::kHardware);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  // Copies are cheap: both views resolve into one immutable, refcounted
  // arena (the same mechanism that lets an index adopt a mapped
  // ColumnarSnapshot's columns without copying them).
  EXPECT_EQ(a.data(), b.data());
  // ... and the backing outlives the original: the copy's views must
  // stay valid (ASan in CI would catch a dangling arena here).
  const std::vector<std::uint32_t> before(b.begin(), b.end());
  original.reset();
  const auto c = copy.by_class(FailureClass::kHardware);
  ASSERT_EQ(c.size(), before.size());
  EXPECT_TRUE(std::equal(c.begin(), c.end(), before.begin()));
}

}  // namespace
}  // namespace tsufail::data
