// Tests for machine specs, the category taxonomy, records, and FailureLog.
#include <gtest/gtest.h>

#include "data/category.h"
#include "data/log.h"
#include "data/machine.h"
#include "data/record.h"

namespace tsufail::data {
namespace {

TEST(MachineSpec, Tsubame2MatchesTableOne) {
  const auto& spec = tsubame2_spec();
  EXPECT_EQ(spec.node_count, 1408);
  EXPECT_EQ(spec.gpus_per_node, 3);
  EXPECT_EQ(spec.cpus_per_node, 2);
  EXPECT_DOUBLE_EQ(spec.rpeak_pflops, 2.3);
  EXPECT_EQ(spec.total_gpus(), 4224);
  EXPECT_EQ(spec.total_gpu_cpu_components(), 7040);  // the paper's number
  EXPECT_GT(spec.window_hours(), 13000.0);
  EXPECT_LT(spec.window_hours(), 14000.0);
}

TEST(MachineSpec, Tsubame3MatchesTableOne) {
  const auto& spec = tsubame3_spec();
  EXPECT_EQ(spec.node_count, 540);
  EXPECT_EQ(spec.gpus_per_node, 4);
  EXPECT_DOUBLE_EQ(spec.rpeak_pflops, 12.1);
  EXPECT_EQ(spec.total_gpu_cpu_components(), 3240);  // the paper's number
  EXPECT_GT(spec.window_hours(), 24000.0);
  EXPECT_LT(spec.window_hours(), 25000.0);
}

TEST(MachineSpec, PaperMtbfConsistency) {
  // 897 failures over the T2 window ~ 15 h MTBF; 338 over T3 ~ 72 h.
  EXPECT_NEAR(tsubame2_spec().window_hours() / 897.0, 15.3, 0.3);
  EXPECT_NEAR(tsubame3_spec().window_hours() / 338.0, 72.3, 0.5);
}

TEST(ParseMachine, AcceptedSpellings) {
  EXPECT_EQ(parse_machine("Tsubame-2").value(), Machine::kTsubame2);
  EXPECT_EQ(parse_machine("tsubame3").value(), Machine::kTsubame3);
  EXPECT_EQ(parse_machine(" T2 ").value(), Machine::kTsubame2);
  EXPECT_FALSE(parse_machine("tsubame-1").ok());
}

TEST(Category, RoundTripAllNames) {
  for (Machine machine : {Machine::kTsubame2, Machine::kTsubame3}) {
    for (Category c : categories_for(machine)) {
      auto parsed = parse_category(to_string(c));
      ASSERT_TRUE(parsed.ok()) << to_string(c);
      EXPECT_EQ(parsed.value(), c);
    }
  }
}

TEST(Category, VocabularySizesMatchTableTwo) {
  EXPECT_EQ(categories_for(Machine::kTsubame2).size(), 17u);
  EXPECT_EQ(categories_for(Machine::kTsubame3).size(), 16u);
}

TEST(Category, Aliases) {
  EXPECT_EQ(parse_category("Power Supply Unit").value(), Category::kPsu);
  EXPECT_EQ(parse_category("Portable Batch System").value(), Category::kPbs);
  EXPECT_EQ(parse_category("infiniband").value(), Category::kInfiniband);
  EXPECT_EQ(parse_category("omni path").value(), Category::kOmniPath);
  EXPECT_EQ(parse_category("SYSTEM BOARD").value(), Category::kSystemBoard);
  EXPECT_EQ(parse_category("sxm2-cable").value(), Category::kSxm2Cable);
  EXPECT_EQ(parse_category("IP").value(), Category::kIpMotherboard);
  EXPECT_EQ(parse_category("fan").value(), Category::kFan);
  EXPECT_EQ(parse_category("Virtual Machine").value(), Category::kVm);
  EXPECT_EQ(parse_category("power board").value(), Category::kPowerBoard);
  EXPECT_EQ(parse_category("sxm2board").value(), Category::kSxm2Board);
  EXPECT_EQ(parse_category("ip-motherboard").value(), Category::kIpMotherboard);
  EXPECT_EQ(parse_category("LED front panel").value(), Category::kLedFrontPanel);
  EXPECT_EQ(parse_category("Cyclic Redundancy Check").value(), Category::kCrc);
  EXPECT_EQ(parse_category("GPU driver related").value(), Category::kGpuDriver);
  EXPECT_EQ(parse_category("Driver").value(), Category::kGpuDriver);
  // Bytes outside ASCII letters and digits are dropped, like punctuation.
  EXPECT_EQ(parse_category("G\xC3\x9CPU").value(), Category::kGpu);
  EXPECT_FALSE(parse_category("quantum tunneling").ok());
  EXPECT_EQ(parse_category("GPUs").error().message(), "unknown failure category: 'GPUs'");
  EXPECT_FALSE(parse_category("").ok());
  EXPECT_EQ(parse_category(" -- ").error().message(), "empty category name");
}

TEST(Category, Classification) {
  EXPECT_EQ(classify(Category::kGpu), FailureClass::kHardware);
  EXPECT_EQ(classify(Category::kCpu), FailureClass::kHardware);
  EXPECT_EQ(classify(Category::kSoftware), FailureClass::kSoftware);
  EXPECT_EQ(classify(Category::kGpuDriver), FailureClass::kSoftware);
  EXPECT_EQ(classify(Category::kPbs), FailureClass::kSoftware);
  EXPECT_EQ(classify(Category::kUnknown), FailureClass::kUnknown);
  EXPECT_EQ(classify(Category::kDown), FailureClass::kUnknown);
}

TEST(Category, GpuRelatedFlags) {
  EXPECT_TRUE(is_gpu_related(Category::kGpu));
  EXPECT_TRUE(is_gpu_related(Category::kGpuDriver));
  EXPECT_FALSE(is_gpu_related(Category::kCpu));
  EXPECT_FALSE(is_gpu_related(Category::kSoftware));
}

TEST(Category, MachineVocabularies) {
  EXPECT_TRUE(valid_for(Category::kFan, Machine::kTsubame2));
  EXPECT_FALSE(valid_for(Category::kFan, Machine::kTsubame3));
  EXPECT_TRUE(valid_for(Category::kLustre, Machine::kTsubame3));
  EXPECT_FALSE(valid_for(Category::kLustre, Machine::kTsubame2));
  EXPECT_TRUE(valid_for(Category::kGpu, Machine::kTsubame2));
  EXPECT_TRUE(valid_for(Category::kGpu, Machine::kTsubame3));
}

FailureRecord make_record(int node, Category category, const char* time,
                          double ttr = 10.0, std::vector<int> slots = {}) {
  FailureRecord r;
  r.node = node;
  r.category = category;
  r.time = parse_time(time).value();
  r.ttr_hours = ttr;
  r.gpu_slots = std::move(slots);
  return r;
}

TEST(RecordValidation, AcceptsGoodRecord) {
  const auto r = make_record(5, Category::kGpu, "2012-06-01 10:00:00", 20.0, {0, 2});
  EXPECT_TRUE(validate_record(r, tsubame2_spec()).ok());
}

TEST(RecordValidation, RejectsWrongVocabulary) {
  const auto r = make_record(5, Category::kLustre, "2012-06-01 10:00:00");
  EXPECT_FALSE(validate_record(r, tsubame2_spec()).ok());
}

TEST(RecordValidation, RejectsNodeOutOfRange) {
  EXPECT_FALSE(
      validate_record(make_record(1408, Category::kGpu, "2012-06-01"), tsubame2_spec()).ok());
  EXPECT_FALSE(
      validate_record(make_record(-1, Category::kGpu, "2012-06-01"), tsubame2_spec()).ok());
}

TEST(RecordValidation, RejectsNegativeTtr) {
  EXPECT_FALSE(
      validate_record(make_record(1, Category::kGpu, "2012-06-01", -1.0), tsubame2_spec()).ok());
}

TEST(RecordValidation, RejectsTimeOutsideWindow) {
  EXPECT_FALSE(
      validate_record(make_record(1, Category::kGpu, "2011-01-01"), tsubame2_spec()).ok());
  EXPECT_FALSE(
      validate_record(make_record(1, Category::kGpu, "2014-01-01"), tsubame2_spec()).ok());
}

TEST(RecordValidation, SlackRelaxesWindow) {
  const auto r = make_record(1, Category::kGpu, "2013-08-02");  // one day past
  EXPECT_FALSE(validate_record(r, tsubame2_spec()).ok());
  EXPECT_TRUE(validate_record(r, tsubame2_spec(), 48.0).ok());
}

TEST(RecordValidation, RejectsBadSlots) {
  EXPECT_FALSE(validate_record(make_record(1, Category::kGpu, "2012-06-01", 1.0, {3}),
                               tsubame2_spec())
                   .ok());  // T2 has slots 0..2
  EXPECT_FALSE(validate_record(make_record(1, Category::kGpu, "2012-06-01", 1.0, {0, 0}),
                               tsubame2_spec())
                   .ok());  // duplicate
  EXPECT_FALSE(validate_record(make_record(1, Category::kCpu, "2012-06-01", 1.0, {0}),
                               tsubame2_spec())
                   .ok());  // slots on a non-GPU category
}

TEST(RecordHelpers, MultiGpuAndClass) {
  const auto single = make_record(1, Category::kGpu, "2012-06-01", 1.0, {1});
  const auto multi = make_record(1, Category::kGpu, "2012-06-01", 1.0, {0, 1});
  EXPECT_FALSE(single.multi_gpu());
  EXPECT_TRUE(multi.multi_gpu());
  EXPECT_EQ(single.failure_class(), FailureClass::kHardware);
  EXPECT_TRUE(single.gpu_related());
}

TEST(FailureLog, SortsByTime) {
  auto log = FailureLog::create(
      tsubame2_spec(), {make_record(1, Category::kGpu, "2012-06-02"),
                        make_record(2, Category::kCpu, "2012-06-01")});
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value().records()[0].node, 2);
  EXPECT_EQ(log.value().records()[1].node, 1);
}

TEST(FailureLog, RejectsInvalidRecordWithIndexContext) {
  auto log = FailureLog::create(
      tsubame2_spec(), {make_record(1, Category::kGpu, "2012-06-01"),
                        make_record(9999, Category::kGpu, "2012-06-02")});
  ASSERT_FALSE(log.ok());
  EXPECT_NE(log.error().message().find("record 1"), std::string::npos);
}

TEST(FailureLog, EmptyLogIsValid) {
  auto log = FailureLog::create(tsubame2_spec(), {});
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log.value().empty());
}

FailureLog small_log() {
  return FailureLog::create(
             tsubame2_spec(),
             {make_record(1, Category::kGpu, "2012-02-01 00:00:00", 5.0, {0}),
              make_record(1, Category::kGpu, "2012-03-01 00:00:00", 7.0, {1, 2}),
              make_record(2, Category::kCpu, "2012-04-01 00:00:00", 9.0),
              make_record(3, Category::kPbs, "2012-05-01 00:00:00", 2.0),
              make_record(2, Category::kDown, "2012-06-01 00:00:00", 4.0)})
      .value();
}

TEST(FailureLog, ByCategory) {
  const auto log = small_log();
  EXPECT_EQ(log.by_category(Category::kGpu).size(), 2u);
  EXPECT_EQ(log.by_category(Category::kSsd).size(), 0u);
}

}  // namespace
}  // namespace tsufail::data
