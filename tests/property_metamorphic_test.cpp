// Metamorphic properties of the analysis plane, run over testkit's random
// logs: permutation invariance, time-shift equivariance of TBF/TTR,
// subset monotonicity of counts, and scale-factor linearity.  A failure
// prints the base seed and a shrunk minimal counterexample (ctest label:
// property; TSUFAIL_TEST_SEED replays, TSUFAIL_TEST_ITERS deepens).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/perf_error_prop.h"
#include "analysis/study.h"
#include "testkit/oracle.h"
#include "testkit/property.h"

namespace tsufail::testkit {
namespace {

constexpr std::int64_t kExactUlps = 4;
constexpr std::int64_t kNearUlps = 512;

std::string show(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  return out.str();
}

/// Rebuilds a log from (possibly transformed) spec + records; REQUIREs
/// success because every metamorphic transform must stay in the valid
/// input space.
data::FailureLog rebuild(const data::MachineSpec& spec,
                         std::vector<data::FailureRecord> records) {
  auto log = data::FailureLog::create(spec, std::move(records));
  TSUFAIL_REQUIRE(log.ok(), "metamorphic transform left the input space: " +
                                log.error().to_string());
  return std::move(log).value();
}

void expect_holds(const char* name, const PropertyOptions& options,
                  const Property& property) {
  const auto ce = check_property(name, options, property);
  if (ce.has_value()) FAIL() << ce->describe();
}

std::map<data::Category, std::size_t> category_counts(const data::FailureLog& log) {
  std::map<data::Category, std::size_t> counts;
  for (const auto& r : log.records()) ++counts[r.category];
  return counts;
}

// --- permutation invariance ----------------------------------------------
//
// FailureLog::create sorts by time, so the hand-over order of the record
// vector must not affect any analysis result.  Counts and sorted-multiset
// statistics are compared exactly; means are Welford-accumulated in a
// tie-group-dependent order, so they get the reassociation tier.

TEST(MetamorphicProperty, PermutationInvariance) {
  const Property property = [](const data::FailureLog& log) -> std::optional<std::string> {
    std::vector<data::FailureRecord> reversed(log.records().begin(), log.records().end());
    std::reverse(reversed.begin(), reversed.end());
    const data::FailureLog permuted = rebuild(log.spec(), std::move(reversed));

    if (category_counts(log) != category_counts(permuted))
      return "category counts changed under record permutation";

    const auto a = analysis::run_study(log, {});
    const auto b = analysis::run_study(permuted, {});
    if (a.ok() != b.ok())
      return std::string("run_study outcome changed under permutation: ") +
             (a.ok() ? b.error().to_string() : a.error().to_string());
    if (!a.ok()) {
      if (a.error().message() != b.error().message())
        return "run_study error message changed under permutation";
      return std::nullopt;
    }

    const auto& ra = a.value();
    const auto& rb = b.value();
    if (ra.node_counts.failed_nodes != rb.node_counts.failed_nodes)
      return "failed_nodes changed under permutation";
    if (ra.ttr.summary.count != rb.ttr.summary.count ||
        !nearly_equal(ra.ttr.summary.median, rb.ttr.summary.median, kExactUlps))
      return "TTR median changed under permutation";
    if (!nearly_equal(ra.ttr.mttr_hours, rb.ttr.mttr_hours, kNearUlps, 1e-9))
      return "MTTR changed under permutation: " + show(ra.ttr.mttr_hours) + " vs " +
             show(rb.ttr.mttr_hours);
    if (ra.tbf.has_value() != rb.tbf.has_value()) return "TBF presence changed";
    if (ra.tbf && rb.tbf) {
      // Sorted times are a pure function of the time multiset, so the gap
      // sequence — and everything derived from it — is bit-stable.
      if (ra.tbf->tbf_hours != rb.tbf->tbf_hours)
        return "TBF gap sequence changed under permutation";
      if (!nearly_equal(ra.tbf->mtbf_hours, rb.tbf->mtbf_hours, kExactUlps))
        return "MTBF changed under permutation";
    }
    for (std::size_t m = 0; m < 12; ++m)
      if (ra.seasonal.failure_counts[m] != rb.seasonal.failure_counts[m])
        return "monthly counts changed under permutation";
    return std::nullopt;
  };
  PropertyOptions options;
  expect_holds("permutation-invariance", options, property);
}

// --- time-shift equivariance ---------------------------------------------
//
// Shifting every timestamp (and the log window) by a whole number of
// hours leaves TBF gaps and TTR samples bit-identical: gaps are integer
// second differences divided by 3600.0, and TTR never reads the clock.

TEST(MetamorphicProperty, TimeShiftEquivariance) {
  const Property property = [](const data::FailureLog& log) -> std::optional<std::string> {
    constexpr std::int64_t kShiftSeconds = 911 * 3600;  // prime number of hours
    data::MachineSpec spec = log.spec();
    spec.log_start = spec.log_start.plus_seconds(kShiftSeconds);
    spec.log_end = spec.log_end.plus_seconds(kShiftSeconds);
    std::vector<data::FailureRecord> shifted(log.records().begin(), log.records().end());
    for (auto& r : shifted) r.time = r.time.plus_seconds(kShiftSeconds);
    const data::FailureLog moved = rebuild(spec, std::move(shifted));
    const data::LogIndex log_index(log);
    const data::LogIndex moved_index(moved);

    const auto tbf_a = analysis::analyze_tbf(log_index);
    const auto tbf_b = analysis::analyze_tbf(moved_index);
    if (tbf_a.ok() != tbf_b.ok()) return "TBF outcome changed under time shift";
    if (tbf_a.ok()) {
      if (tbf_a.value().tbf_hours != tbf_b.value().tbf_hours)
        return "TBF gaps changed under time shift";
      if (tbf_a.value().mtbf_hours != tbf_b.value().mtbf_hours)
        return "MTBF changed under time shift: " + show(tbf_a.value().mtbf_hours) +
               " vs " + show(tbf_b.value().mtbf_hours);
      if (tbf_a.value().exposure_mtbf_hours != tbf_b.value().exposure_mtbf_hours)
        return "exposure MTBF changed under time shift";
    } else if (tbf_a.error().message() != tbf_b.error().message()) {
      return "TBF error changed under time shift";
    }

    const auto ttr_a = analysis::analyze_ttr(log_index);
    const auto ttr_b = analysis::analyze_ttr(moved_index);
    if (ttr_a.ok() != ttr_b.ok()) return "TTR outcome changed under time shift";
    if (ttr_a.ok()) {
      if (ttr_a.value().ttr_hours != ttr_b.value().ttr_hours)
        return "TTR samples changed under time shift";
      if (ttr_a.value().mttr_hours != ttr_b.value().mttr_hours)
        return "MTTR changed under time shift";
    }
    return std::nullopt;
  };
  PropertyOptions options;
  expect_holds("time-shift-equivariance", options, property);
}

// --- subset monotonicity -------------------------------------------------
//
// Dropping records can only decrease counts: per-category counts, failed
// node count, monthly counts, and total failures are all monotone in the
// record subset.

TEST(MetamorphicProperty, SubsetMonotonicityOfCounts) {
  const Property property = [](const data::FailureLog& log) -> std::optional<std::string> {
    if (log.size() < 2) return std::nullopt;
    std::vector<data::FailureRecord> half(log.records().begin(),
                                          log.records().begin() + log.size() / 2);
    const data::FailureLog sub = rebuild(log.spec(), std::move(half));
    const data::LogIndex log_index(log);
    const data::LogIndex sub_index(sub);

    const auto full_counts = category_counts(log);
    for (const auto& [category, count] : category_counts(sub)) {
      const auto it = full_counts.find(category);
      if (it == full_counts.end() || count > it->second)
        return std::string("subset category count exceeds full count for ") +
               std::string(data::to_string(category));
    }

    const auto full_nodes = analysis::analyze_node_counts(log_index);
    const auto sub_nodes = analysis::analyze_node_counts(sub_index);
    if (full_nodes.ok() && sub_nodes.ok()) {
      if (sub_nodes.value().failed_nodes > full_nodes.value().failed_nodes)
        return "subset has more failed nodes than the full log";
      if (sub_nodes.value().max_failures_on_one_node >
          full_nodes.value().max_failures_on_one_node)
        return "subset max per-node failures exceeds full log";
    }

    const auto full_seasonal = analysis::analyze_seasonal(log_index);
    const auto sub_seasonal = analysis::analyze_seasonal(sub_index);
    if (full_seasonal.ok() && sub_seasonal.ok()) {
      for (std::size_t m = 0; m < 12; ++m)
        if (sub_seasonal.value().failure_counts[m] > full_seasonal.value().failure_counts[m])
          return "subset monthly count exceeds full log";
    }
    return std::nullopt;
  };
  PropertyOptions options;
  options.gen.min_records = 2;
  expect_holds("subset-monotonicity", options, property);
}

// --- scale-factor linearity ----------------------------------------------
//
// Power-of-two scale factors make these exact in IEEE arithmetic: doubling
// Rpeak doubles the PFlop-hours metrics; doubling every TTR doubles the
// TTR location statistics (quantiles scale exactly; Welford's mean and
// the sqrt of a 4x-scaled M2 are exact under *2).

TEST(MetamorphicProperty, RpeakScalingLinearity) {
  const Property property = [](const data::FailureLog& log) -> std::optional<std::string> {
    data::MachineSpec spec = log.spec();
    spec.rpeak_pflops *= 2.0;
    const data::FailureLog scaled =
        rebuild(spec, {log.records().begin(), log.records().end()});
    const data::LogIndex log_index(log);
    const data::LogIndex scaled_index(scaled);

    const auto a = analysis::analyze_perf_error_prop(log_index);
    const auto b = analysis::analyze_perf_error_prop(scaled_index);
    if (a.ok() != b.ok()) return "perf-error outcome changed under Rpeak scaling";
    if (!a.ok()) return std::nullopt;
    if (b.value().pflop_hours_per_failure_free_period !=
        2.0 * a.value().pflop_hours_per_failure_free_period)
      return "PFlop-hours per failure-free period is not linear in Rpeak: " +
             show(a.value().pflop_hours_per_failure_free_period) + " -> " +
             show(b.value().pflop_hours_per_failure_free_period);
    if (b.value().mtbf_hours != a.value().mtbf_hours)
      return "MTBF changed under Rpeak scaling";
    return std::nullopt;
  };
  PropertyOptions options;
  options.gen.min_records = 1;
  expect_holds("rpeak-linearity", options, property);
}

TEST(MetamorphicProperty, TtrScalingLinearity) {
  const Property property = [](const data::FailureLog& log) -> std::optional<std::string> {
    std::vector<data::FailureRecord> doubled(log.records().begin(), log.records().end());
    for (auto& r : doubled) r.ttr_hours *= 2.0;
    const data::FailureLog scaled = rebuild(log.spec(), std::move(doubled));
    const data::LogIndex log_index(log);
    const data::LogIndex scaled_index(scaled);

    const auto a = analysis::analyze_ttr(log_index);
    const auto b = analysis::analyze_ttr(scaled_index);
    if (a.ok() != b.ok()) return "TTR outcome changed under TTR scaling";
    if (!a.ok()) return std::nullopt;
    if (b.value().mttr_hours != 2.0 * a.value().mttr_hours)
      return "MTTR is not linear in TTR: " + show(a.value().mttr_hours) + " -> " +
             show(b.value().mttr_hours);
    if (b.value().summary.median != 2.0 * a.value().summary.median)
      return "TTR median is not linear in TTR";
    if (b.value().summary.p95 != 2.0 * a.value().summary.p95)
      return "TTR p95 is not linear in TTR";
    if (b.value().summary.stddev != 2.0 * a.value().summary.stddev)
      return "TTR stddev is not linear in TTR";
    return std::nullopt;
  };
  PropertyOptions options;
  options.gen.min_records = 1;
  expect_holds("ttr-linearity", options, property);
}

// --- structural invariants (cheap sanity properties) ---------------------

TEST(MetamorphicProperty, TbfGapCountAndNonNegativity) {
  const Property property = [](const data::FailureLog& log) -> std::optional<std::string> {
    const auto tbf = analysis::analyze_tbf(data::LogIndex(log));
    if (!tbf.ok()) {
      if (log.size() >= 2) return "TBF failed on a log with >= 2 records";
      return std::nullopt;
    }
    if (tbf.value().tbf_hours.size() != log.size() - 1)
      return "TBF gap count is not n-1";
    for (double gap : tbf.value().tbf_hours)
      if (!(gap >= 0.0)) return "negative TBF gap: " + show(gap);
    return std::nullopt;
  };
  PropertyOptions options;
  expect_holds("tbf-structure", options, property);
}

TEST(MetamorphicProperty, CategoryPercentsSumToHundred) {
  const Property property = [](const data::FailureLog& log) -> std::optional<std::string> {
    const auto breakdown = analysis::analyze_categories(data::LogIndex(log));
    if (!breakdown.ok()) {
      if (log.size() > 0) return "category breakdown failed on a non-empty log";
      return std::nullopt;
    }
    double total = 0.0;
    std::size_t count = 0;
    for (const auto& slice : breakdown.value().categories) {
      total += slice.percent;
      count += slice.count;
    }
    if (count != log.size()) return "category counts do not sum to total";
    if (std::abs(total - 100.0) > 1e-9)
      return "category percents sum to " + show(total) + ", not 100";
    return std::nullopt;
  };
  PropertyOptions options;
  expect_holds("category-percents", options, property);
}

}  // namespace
}  // namespace tsufail::testkit
