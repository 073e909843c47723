// Refactor-equivalence suite: the LogIndex-based analyses must be
// bit-identical to the raw-log computation they replaced, the restricted
// seasonal views must equal the whole-log analysis of their own sub-log,
// every analysis entry point must take the index (and only run_study
// also a log), and run_study must assemble the exact same StudyReport at
// every thread count.  All comparisons use EXPECT_EQ on doubles deliberately:
// the refactor's contract is bit identity, not tolerance.
#include <gtest/gtest.h>

#include <concepts>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/lead_lag.h"
#include "analysis/node_survival.h"
#include "analysis/query.h"
#include "analysis/rack_distribution.h"
#include "analysis/rolling.h"
#include "analysis/study.h"
#include "data/log_index.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::analysis {
namespace {

data::FailureLog generated(data::Machine machine) {
  const auto model = machine == data::Machine::kTsubame2 ? sim::tsubame2_model()
                                                         : sim::tsubame3_model();
  return sim::generate_log(model, 11).value();
}

// ---- exact-equality helpers, one per report struct ----------------------

void expect_eq(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.p25, b.p25);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p75, b.p75);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.max, b.max);
}

void expect_eq(const stats::BoxStats& a, const stats::BoxStats& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.q1, b.q1);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.q3, b.q3);
  EXPECT_EQ(a.iqr, b.iqr);
  EXPECT_EQ(a.whisker_low, b.whisker_low);
  EXPECT_EQ(a.whisker_high, b.whisker_high);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.outliers, b.outliers);
  EXPECT_EQ(a.sample_min, b.sample_min);
  EXPECT_EQ(a.sample_max, b.sample_max);
}

void expect_eq(const std::optional<stats::FamilyChoice>& a,
               const std::optional<stats::FamilyChoice>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_EQ(a->family, b->family);
  EXPECT_EQ(a->ks_distance, b->ks_distance);
}

void expect_eq(const CategoryBreakdown& a, const CategoryBreakdown& b) {
  EXPECT_EQ(a.total_failures, b.total_failures);
  ASSERT_EQ(a.categories.size(), b.categories.size());
  for (std::size_t i = 0; i < a.categories.size(); ++i) {
    EXPECT_EQ(a.categories[i].category, b.categories[i].category);
    EXPECT_EQ(a.categories[i].count, b.categories[i].count);
    EXPECT_EQ(a.categories[i].percent, b.categories[i].percent);
  }
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].cls, b.classes[i].cls);
    EXPECT_EQ(a.classes[i].count, b.classes[i].count);
    EXPECT_EQ(a.classes[i].percent, b.classes[i].percent);
  }
}

void expect_eq(const SoftwareLoci& a, const SoftwareLoci& b) {
  EXPECT_EQ(a.software_failures, b.software_failures);
  EXPECT_EQ(a.distinct_loci, b.distinct_loci);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].locus, b.top[i].locus);
    EXPECT_EQ(a.top[i].count, b.top[i].count);
    EXPECT_EQ(a.top[i].percent, b.top[i].percent);
  }
  EXPECT_EQ(a.gpu_driver_percent, b.gpu_driver_percent);
  EXPECT_EQ(a.unknown_percent, b.unknown_percent);
}

void expect_eq(const NodeCounts& a, const NodeCounts& b) {
  EXPECT_EQ(a.failed_nodes, b.failed_nodes);
  EXPECT_EQ(a.total_nodes, b.total_nodes);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].failures, b.buckets[i].failures);
    EXPECT_EQ(a.buckets[i].nodes, b.buckets[i].nodes);
    EXPECT_EQ(a.buckets[i].percent_of_failed, b.buckets[i].percent_of_failed);
  }
  EXPECT_EQ(a.percent_single_failure, b.percent_single_failure);
  EXPECT_EQ(a.percent_multi_failure, b.percent_multi_failure);
  EXPECT_EQ(a.max_failures_on_one_node, b.max_failures_on_one_node);
  EXPECT_EQ(a.repeat_node_hardware_failures, b.repeat_node_hardware_failures);
  EXPECT_EQ(a.repeat_node_software_failures, b.repeat_node_software_failures);
}

void expect_eq(const GpuSlotDistribution& a, const GpuSlotDistribution& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].slot, b.slots[i].slot);
    EXPECT_EQ(a.slots[i].count, b.slots[i].count);
    EXPECT_EQ(a.slots[i].percent, b.slots[i].percent);
    EXPECT_EQ(a.slots[i].per_node_average, b.slots[i].per_node_average);
  }
  EXPECT_EQ(a.attributed_failures, b.attributed_failures);
  EXPECT_EQ(a.total_involvements, b.total_involvements);
  EXPECT_EQ(a.max_relative_excess, b.max_relative_excess);
  EXPECT_EQ(a.uniformity_p_value, b.uniformity_p_value);
}

void expect_eq(const MultiGpuInvolvement& a, const MultiGpuInvolvement& b) {
  EXPECT_EQ(a.attributed_failures, b.attributed_failures);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].gpus, b.buckets[i].gpus);
    EXPECT_EQ(a.buckets[i].count, b.buckets[i].count);
    EXPECT_EQ(a.buckets[i].percent, b.buckets[i].percent);
  }
  EXPECT_EQ(a.percent_multi, b.percent_multi);
}

void expect_eq(const TbfResult& a, const TbfResult& b) {
  EXPECT_EQ(a.tbf_hours, b.tbf_hours);
  EXPECT_EQ(a.mtbf_hours, b.mtbf_hours);
  EXPECT_EQ(a.exposure_mtbf_hours, b.exposure_mtbf_hours);
  expect_eq(a.summary, b.summary);
  EXPECT_EQ(a.p75_hours, b.p75_hours);
  expect_eq(a.best_family, b.best_family);
}

void expect_eq(const std::vector<CategoryTbf>& a, const std::vector<CategoryTbf>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].failures, b[i].failures);
    expect_eq(a[i].box, b[i].box);
    EXPECT_EQ(a[i].mtbf_hours, b[i].mtbf_hours);
    EXPECT_EQ(a[i].exposure_mtbf_hours, b[i].exposure_mtbf_hours);
  }
}

void expect_eq(const TemporalClustering& a, const TemporalClustering& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.event_hours, b.event_hours);
  EXPECT_EQ(a.gaps_hours, b.gaps_hours);
  expect_eq(a.gap_summary, b.gap_summary);
  EXPECT_EQ(a.cv, b.cv);
  EXPECT_EQ(a.burstiness, b.burstiness);
  EXPECT_EQ(a.follow_window_hours, b.follow_window_hours);
  EXPECT_EQ(a.follow_probability, b.follow_probability);
  EXPECT_EQ(a.poisson_follow_probability, b.poisson_follow_probability);
  EXPECT_EQ(a.clustered, b.clustered);
}

void expect_eq(const TtrResult& a, const TtrResult& b) {
  EXPECT_EQ(a.ttr_hours, b.ttr_hours);
  EXPECT_EQ(a.mttr_hours, b.mttr_hours);
  expect_eq(a.summary, b.summary);
  expect_eq(a.best_family, b.best_family);
}

void expect_eq(const std::vector<CategoryTtr>& a, const std::vector<CategoryTtr>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].failures, b[i].failures);
    EXPECT_EQ(a[i].share_percent, b[i].share_percent);
    expect_eq(a[i].box, b[i].box);
    EXPECT_EQ(a[i].mttr_hours, b[i].mttr_hours);
  }
}

void expect_eq(const SeasonalAnalysis& a, const SeasonalAnalysis& b) {
  for (std::size_t m = 0; m < 12; ++m) {
    SCOPED_TRACE("month index " + std::to_string(m));
    EXPECT_EQ(a.monthly[m].month, b.monthly[m].month);
    EXPECT_EQ(a.monthly[m].failures, b.monthly[m].failures);
    ASSERT_EQ(a.monthly[m].box.has_value(), b.monthly[m].box.has_value());
    if (a.monthly[m].box) expect_eq(*a.monthly[m].box, *b.monthly[m].box);
  }
  EXPECT_EQ(a.failure_counts, b.failure_counts);
  EXPECT_EQ(a.exposure_days, b.exposure_days);
  EXPECT_EQ(a.failures_per_day, b.failures_per_day);
  EXPECT_EQ(a.first_half_median_ttr, b.first_half_median_ttr);
  EXPECT_EQ(a.second_half_median_ttr, b.second_half_median_ttr);
  EXPECT_EQ(a.pearson_density_ttr, b.pearson_density_ttr);
  EXPECT_EQ(a.spearman_density_ttr, b.spearman_density_ttr);
}

void expect_eq(const PerfErrorProportionality& a, const PerfErrorProportionality& b) {
  EXPECT_EQ(a.mtbf_hours, b.mtbf_hours);
  EXPECT_EQ(a.rpeak_pflops, b.rpeak_pflops);
  EXPECT_EQ(a.pflop_hours_per_failure_free_period, b.pflop_hours_per_failure_free_period);
  EXPECT_EQ(a.pflop_hours_per_component, b.pflop_hours_per_component);
  EXPECT_EQ(a.components, b.components);
}

template <typename T>
void expect_eq_optional(const std::optional<T>& a, const std::optional<T>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) expect_eq(*a, *b);
}

void expect_eq(const StudyReport& a, const StudyReport& b) {
  { SCOPED_TRACE("categories"); expect_eq(a.categories, b.categories); }
  { SCOPED_TRACE("software_loci"); expect_eq_optional(a.software_loci, b.software_loci); }
  { SCOPED_TRACE("node_counts"); expect_eq(a.node_counts, b.node_counts); }
  { SCOPED_TRACE("gpu_slots"); expect_eq_optional(a.gpu_slots, b.gpu_slots); }
  { SCOPED_TRACE("multi_gpu"); expect_eq_optional(a.multi_gpu, b.multi_gpu); }
  { SCOPED_TRACE("tbf"); expect_eq_optional(a.tbf, b.tbf); }
  { SCOPED_TRACE("tbf_by_category"); expect_eq(a.tbf_by_category, b.tbf_by_category); }
  {
    SCOPED_TRACE("multi_gpu_clustering");
    expect_eq_optional(a.multi_gpu_clustering, b.multi_gpu_clustering);
  }
  { SCOPED_TRACE("ttr"); expect_eq(a.ttr, b.ttr); }
  { SCOPED_TRACE("ttr_by_category"); expect_eq(a.ttr_by_category, b.ttr_by_category); }
  { SCOPED_TRACE("seasonal"); expect_eq(a.seasonal, b.seasonal); }
  { SCOPED_TRACE("perf_error_prop"); expect_eq(a.perf_error_prop, b.perf_error_prop); }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].analysis, b.skipped[i].analysis);
    EXPECT_EQ(a.skipped[i].error.kind(), b.skipped[i].error.kind());
    EXPECT_EQ(a.skipped[i].error.message(), b.skipped[i].error.message());
  }
}

// ---- index gathers vs a raw record scan (the replaced code path) --------

class RawPathEquivalence : public ::testing::TestWithParam<data::Machine> {};

TEST_P(RawPathEquivalence, CategoryHourStreamsMatchRecordScan) {
  const auto log = generated(GetParam());
  const data::LogIndex index(log);
  for (std::size_t c = 0; c <= static_cast<std::size_t>(data::Category::kUnknown); ++c) {
    const auto category = static_cast<data::Category>(c);
    // What the pre-index analyzers did: scan records, filter, convert.
    std::vector<double> raw;
    for (const auto& record : log.records())
      if (record.category == category)
        raw.push_back(hours_between(log.spec().log_start, record.time));
    EXPECT_EQ(raw, index.hours_of(index.by_category(category)));
  }
}

TEST_P(RawPathEquivalence, ClassTtrStreamsMatchRecordScan) {
  const auto log = generated(GetParam());
  const data::LogIndex index(log);
  for (data::FailureClass cls : {data::FailureClass::kHardware, data::FailureClass::kSoftware,
                                 data::FailureClass::kUnknown}) {
    std::vector<double> raw;
    for (const auto& record : log.records())
      if (record.failure_class() == cls) raw.push_back(record.ttr_hours);
    EXPECT_EQ(raw, index.ttr_of(index.by_class(cls)));
  }
}

TEST_P(RawPathEquivalence, MonthTtrStreamsMatchRecordScan) {
  const auto log = generated(GetParam());
  const data::LogIndex index(log);
  for (int month = 1; month <= 12; ++month) {
    std::vector<double> raw;
    for (const auto& record : log.records())
      if (record.time.month() == month) raw.push_back(record.ttr_hours);
    EXPECT_EQ(raw, index.ttr_of(index.by_month(month)));
  }
}

TEST_P(RawPathEquivalence, MultiGpuHourStreamMatchesRecordScan) {
  const auto log = generated(GetParam());
  const data::LogIndex index(log);
  std::vector<double> raw;
  for (const auto& record : log.records())
    if (record.multi_gpu())
      raw.push_back(hours_between(log.spec().log_start, record.time));
  EXPECT_EQ(raw, index.hours_of(index.multi_gpu()));
}

INSTANTIATE_TEST_SUITE_P(BothMachines, RawPathEquivalence,
                         ::testing::Values(data::Machine::kTsubame2, data::Machine::kTsubame3));

// ---- restricted seasonal views vs their own sub-log ---------------------

/// What a restricted seasonal view must reproduce: the selected records
/// copied into a log of their own, indexed, and analyzed whole.
template <typename Keep>
Result<SeasonalAnalysis> seasonal_of_sublog(const data::FailureLog& log, Keep keep) {
  std::vector<data::FailureRecord> subset;
  for (const auto& record : log.records())
    if (keep(record)) subset.push_back(record);
  // Generated logs overshoot the window by up to an hour.
  const auto sub = data::FailureLog::create(log.spec(), std::move(subset), 1.0).value();
  const data::LogIndex index(sub);
  return analyze_seasonal(index);
}

class SeasonalRestriction : public ::testing::TestWithParam<data::Machine> {};

TEST_P(SeasonalRestriction, ClassViewMatchesItsSubLog) {
  const auto log = generated(GetParam());
  const data::LogIndex index(log);
  for (data::FailureClass cls : {data::FailureClass::kHardware, data::FailureClass::kSoftware,
                                 data::FailureClass::kUnknown}) {
    const std::string name(data::to_string(cls));
    SCOPED_TRACE(name);
    const auto got = analyze_seasonal_class(index, cls);
    const auto want = seasonal_of_sublog(
        log, [cls](const data::FailureRecord& r) { return r.failure_class() == cls; });
    ASSERT_EQ(got.ok(), want.ok());
    if (got.ok())
      expect_eq(got.value(), want.value());
    else
      EXPECT_EQ(got.error().message(), "class " + name + ": analyze_seasonal: empty log");
  }
}

TEST_P(SeasonalRestriction, CategoryViewMatchesItsSubLog) {
  const auto log = generated(GetParam());
  const data::LogIndex index(log);
  std::size_t compared = 0;
  for (data::Category category : data::categories_for(log.machine())) {
    const std::string name(data::to_string(category));
    SCOPED_TRACE(name);
    const auto got = analyze_seasonal_category(index, category);
    const auto want = seasonal_of_sublog(
        log, [category](const data::FailureRecord& r) { return r.category == category; });
    ASSERT_EQ(got.ok(), want.ok());
    if (got.ok()) {
      expect_eq(got.value(), want.value());
      ++compared;
    } else {
      EXPECT_EQ(got.error().message(), "category " + name + ": analyze_seasonal: empty log");
    }
  }
  EXPECT_GE(compared, 5u);
}

INSTANTIATE_TEST_SUITE_P(BothMachines, SeasonalRestriction,
                         ::testing::Values(data::Machine::kTsubame2, data::Machine::kTsubame3));

TEST(SeasonalRestrictionEdge, NoFailuresOfTheClassOrCategoryIsADomainError) {
  data::FailureRecord gpu;
  gpu.node = 1;
  gpu.category = data::Category::kGpu;
  gpu.time = parse_time("2012-02-10").value();
  gpu.ttr_hours = 10.0;
  const auto log = data::FailureLog::create(data::tsubame2_spec(), {gpu}).value();
  const data::LogIndex index(log);

  const auto software = analyze_seasonal_class(index, data::FailureClass::kSoftware);
  ASSERT_FALSE(software.ok());
  EXPECT_EQ(software.error().to_string(), "domain: class software: analyze_seasonal: empty log");
  const auto ssd = analyze_seasonal_category(index, data::Category::kSsd);
  ASSERT_FALSE(ssd.ok());
  EXPECT_EQ(ssd.error().to_string(), "domain: category SSD: analyze_seasonal: empty log");
}

// ---- compare_generations vs two perf_error_prop results -----------------

TEST(GenerationComparison, RatiosOfTheTwoMachineMetrics) {
  const auto t2_log = generated(data::Machine::kTsubame2);
  const auto t3_log = generated(data::Machine::kTsubame3);
  const data::LogIndex t2(t2_log);
  const data::LogIndex t3(t3_log);
  const auto older = analyze_perf_error_prop(t2).value();
  const auto newer = analyze_perf_error_prop(t3).value();
  const auto cmp = compare_generations(t2, t3).value();
  { SCOPED_TRACE("older"); expect_eq(cmp.older, older); }
  { SCOPED_TRACE("newer"); expect_eq(cmp.newer, newer); }
  EXPECT_EQ(cmp.compute_ratio, newer.rpeak_pflops / older.rpeak_pflops);
  EXPECT_EQ(cmp.mtbf_ratio, newer.mtbf_hours / older.mtbf_hours);
  EXPECT_EQ(cmp.metric_ratio, newer.pflop_hours_per_failure_free_period /
                                  older.pflop_hours_per_failure_free_period);
  EXPECT_EQ(cmp.component_ratio,
            static_cast<double>(older.components) / static_cast<double>(newer.components));
  EXPECT_EQ(cmp.reliability_outpaced_shrinkage, cmp.mtbf_ratio > cmp.component_ratio);
}

TEST(GenerationComparison, EmptySideIsNamedInTheError) {
  const auto t3_log = generated(data::Machine::kTsubame3);
  const auto empty_log = data::FailureLog::create(data::tsubame2_spec(), {}).value();
  const data::LogIndex t3(t3_log);
  const data::LogIndex empty(empty_log);
  const auto no_older = compare_generations(empty, t3);
  ASSERT_FALSE(no_older.ok());
  EXPECT_EQ(no_older.error().to_string(),
            "domain: older system: analyze_perf_error_prop: empty log");
  const auto no_newer = compare_generations(t3, empty);
  ASSERT_FALSE(no_newer.ok());
  EXPECT_EQ(no_newer.error().to_string(),
            "domain: newer system: analyze_perf_error_prop: empty log");
}

// ---- one input type: the index in, and a log also into run_study -------

// Every public entry point of src/analysis/ except run_study, as a generic
// callable that is invocable exactly when the call compiles.
constexpr auto kEntryPoints = std::tuple{
    [](const auto& in) -> decltype(void(analyze_categories(in))) {},
    [](const auto& in) -> decltype(void(analyze_software_loci(in))) {},
    [](const auto& in) -> decltype(void(analyze_node_counts(in))) {},
    [](const auto& in) -> decltype(void(analyze_gpu_slots(in))) {},
    [](const auto& in) -> decltype(void(analyze_multi_gpu(in))) {},
    [](const auto& in) -> decltype(void(analyze_tbf(in))) {},
    [](const auto& in) -> decltype(void(analyze_tbf_category(in, data::Category::kGpu))) {},
    [](const auto& in) -> decltype(void(analyze_tbf_class(in, data::FailureClass::kHardware))) {},
    [](const auto& in) -> decltype(void(analyze_tbf_by_category(in))) {},
    [](const auto& in) -> decltype(void(analyze_multi_gpu_clustering(in))) {},
    [](const auto& in) -> decltype(void(analyze_category_burstiness(in))) {},
    [](const auto& in) -> decltype(void(analyze_ttr(in))) {},
    [](const auto& in) -> decltype(void(analyze_ttr_category(in, data::Category::kGpu))) {},
    [](const auto& in) -> decltype(void(analyze_ttr_class(in, data::FailureClass::kHardware))) {},
    [](const auto& in) -> decltype(void(analyze_ttr_by_category(in))) {},
    [](const auto& in) -> decltype(void(analyze_seasonal(in))) {},
    [](const auto& in)
        -> decltype(void(analyze_seasonal_class(in, data::FailureClass::kHardware))) {},
    [](const auto& in) -> decltype(void(analyze_seasonal_category(in, data::Category::kGpu))) {},
    [](const auto& in) -> decltype(void(analyze_perf_error_prop(in))) {},
    [](const auto& in) -> decltype(void(compare_generations(in, in))) {},
    [](const auto& in) -> decltype(void(analyze_node_survival(in))) {},
    [](const auto& in) -> decltype(void(analyze_racks(in))) {},
    [](const auto& in) -> decltype(void(analyze_rolling_trends(in))) {},
    [](const auto& in) -> decltype(void(analyze_lead_lag(in))) {},
    [](const auto& in) -> decltype(void(analyze_lead_lag_pair(in, data::Category::kGpu,
                                                              data::Category::kCpu))) {},
    [](const auto& in) -> decltype(void(run_query("tbf", in))) {},
};
constexpr auto kRunStudy = [](const auto& in) -> decltype(void(run_study(in))) {};

template <typename Input, typename Entry>
concept EntryPointTakes = std::invocable<const Entry&, const Input&>;

template <typename Input, typename... Entry>
constexpr std::size_t entry_points_taking(const std::tuple<Entry...>&) {
  return (std::size_t{0} + ... + (EntryPointTakes<Input, Entry> ? 1 : 0));
}

static_assert(entry_points_taking<data::LogIndex>(kEntryPoints) ==
                  std::tuple_size_v<decltype(kEntryPoints)>,
              "every analysis entry point takes a const data::LogIndex&");
static_assert(entry_points_taking<data::FailureLog>(kEntryPoints) == 0,
              "no analysis entry point besides run_study takes a const data::FailureLog&");
static_assert(EntryPointTakes<data::FailureLog, decltype(kRunStudy)>);
static_assert(EntryPointTakes<data::LogIndex, decltype(kRunStudy)>);

// ---- run_study determinism across thread counts -------------------------

class StudyDeterminism : public ::testing::TestWithParam<data::Machine> {};

TEST_P(StudyDeterminism, ReportIsBitIdenticalAtEveryThreadCount) {
  const auto log = generated(GetParam());
  const auto serial = run_study(log, StudyOptions{1});
  ASSERT_TRUE(serial.ok()) << serial.error().message();
  for (std::size_t jobs : {std::size_t{2}, std::size_t{4}, std::size_t{7}, std::size_t{0}}) {
    SCOPED_TRACE("jobs = " + std::to_string(jobs));
    const auto parallel = run_study(log, StudyOptions{jobs});
    ASSERT_TRUE(parallel.ok()) << parallel.error().message();
    expect_eq(serial.value(), parallel.value());
  }
}

TEST_P(StudyDeterminism, RepeatedParallelRunsAgree) {
  const auto log = generated(GetParam());
  const auto first = run_study(log, StudyOptions{0});
  ASSERT_TRUE(first.ok());
  const auto second = run_study(log, StudyOptions{0});
  ASSERT_TRUE(second.ok());
  expect_eq(first.value(), second.value());
}

INSTANTIATE_TEST_SUITE_P(BothMachines, StudyDeterminism,
                         ::testing::Values(data::Machine::kTsubame2, data::Machine::kTsubame3));

TEST(StudyDeterminismEdge, DefaultOptionsMatchExplicitSerial) {
  const auto log = generated(data::Machine::kTsubame3);
  const auto implicit = run_study(log);
  const auto serial = run_study(log, StudyOptions{1});
  ASSERT_TRUE(implicit.ok());
  ASSERT_TRUE(serial.ok());
  expect_eq(implicit.value(), serial.value());
}

}  // namespace
}  // namespace tsufail::analysis
