#include "testkit/reference.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "stats/correlation.h"
#include "stats/hypothesis.h"
#include "testkit/reference_fit.h"
#include "util/strings.h"

namespace tsufail::testkit {
namespace {

using data::Category;
using data::FailureClass;
using data::FailureLog;
using data::FailureRecord;

// --- naive numeric building blocks ---------------------------------------
// Independent of src/stats/: O(n^2) sorting, two-pass moments, and the
// R type-7 quantile formula re-stated from the definition.

std::vector<double> insertion_sorted(std::vector<double> values) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    const double x = values[i];
    std::size_t j = i;
    while (j > 0 && values[j - 1] > x) {
      values[j] = values[j - 1];
      --j;
    }
    values[j] = x;
  }
  return values;
}

double naive_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double x : values) sum += x;
  return sum / static_cast<double>(values.size());
}

double naive_stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = naive_mean(values);
  double ss = 0.0;
  for (double x : values) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

/// R type-7 quantile of an ascending-sorted sample (matches
/// stats::quantile_sorted bit-for-bit on identical input).
double naive_quantile(const std::vector<double>& sorted, double q) {
  const double h = static_cast<double>(sorted.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

stats::Summary naive_summary(const std::vector<double>& values) {
  const std::vector<double> sorted = insertion_sorted(values);
  stats::Summary s;
  s.count = sorted.size();
  s.mean = naive_mean(sorted);
  s.stddev = naive_stddev(sorted);
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = naive_quantile(sorted, 0.25);
  s.median = naive_quantile(sorted, 0.50);
  s.p75 = naive_quantile(sorted, 0.75);
  s.p95 = naive_quantile(sorted, 0.95);
  return s;
}

stats::BoxStats naive_box(const std::vector<double>& values) {
  const std::vector<double> sorted = insertion_sorted(values);
  stats::BoxStats b;
  b.count = sorted.size();
  b.q1 = naive_quantile(sorted, 0.25);
  b.median = naive_quantile(sorted, 0.50);
  b.q3 = naive_quantile(sorted, 0.75);
  b.iqr = b.q3 - b.q1;
  b.mean = naive_mean(sorted);
  b.sample_min = sorted.front();
  b.sample_max = sorted.back();
  const double fence_low = b.q1 - 1.5 * b.iqr;
  const double fence_high = b.q3 + 1.5 * b.iqr;
  b.whisker_low = sorted.front();
  b.whisker_high = sorted.back();
  for (double x : sorted) {
    if (x >= fence_low) {
      b.whisker_low = x;
      break;
    }
  }
  for (std::size_t i = sorted.size(); i > 0; --i) {
    if (sorted[i - 1] <= fence_high) {
      b.whisker_high = sorted[i - 1];
      break;
    }
  }
  for (double x : sorted) {
    if (x < fence_low || x > fence_high) ++b.outliers;
  }
  return b;
}

/// Stable O(n^2) insertion sort by an arbitrary strict-weak `less`.
template <typename T, typename Less>
void stable_insertion_sort(std::vector<T>& items, Less less) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    T x = std::move(items[i]);
    std::size_t j = i;
    while (j > 0 && less(x, items[j - 1])) {
      items[j] = std::move(items[j - 1]);
      --j;
    }
    items[j] = std::move(x);
  }
}

// --- naive record-stream selection ---------------------------------------

/// The machine's vocabulary in ascending enum order (the order a
/// std::map<Category, ...> iterates, which the fast paths inherit).
std::vector<Category> vocabulary_enum_order(data::Machine machine) {
  std::vector<Category> vocabulary(data::categories_for(machine).begin(),
                                   data::categories_for(machine).end());
  stable_insertion_sort(vocabulary, [](Category a, Category b) {
    return static_cast<int>(a) < static_cast<int>(b);
  });
  return vocabulary;
}

std::vector<double> hours_of_stream(const FailureLog& log,
                                    const std::vector<const FailureRecord*>& stream) {
  std::vector<double> hours;
  for (const FailureRecord* record : stream)
    hours.push_back(hours_between(log.spec().log_start, record->time));
  return hours;
}

std::vector<double> ttr_of_stream(const std::vector<const FailureRecord*>& stream) {
  std::vector<double> values;
  for (const FailureRecord* record : stream) values.push_back(record->ttr_hours);
  return values;
}

template <typename Pred>
std::vector<const FailureRecord*> select(const FailureLog& log, Pred pred) {
  std::vector<const FailureRecord*> stream;
  for (const FailureRecord& record : log.records())
    if (pred(record)) stream.push_back(&record);
  return stream;
}

bool slot_attributed(const FailureRecord& record) {
  return record.gpu_related() && !record.gpu_slots.empty();
}

// --- shared analysis cores (naive) ---------------------------------------

/// TBF over an event-hour sample (mirrors tbf_from_hours).
Result<analysis::TbfResult> tbf_core(const data::MachineSpec& spec, std::vector<double> hours,
                                     bool fit_family = true) {
  if (hours.size() < 2)
    return Error(ErrorKind::kDomain,
                 "TBF needs at least 2 failures, have " + std::to_string(hours.size()));
  const std::vector<double> sorted = insertion_sorted(std::move(hours));

  analysis::TbfResult result;
  for (std::size_t i = 1; i < sorted.size(); ++i)
    result.tbf_hours.push_back(sorted[i] - sorted[i - 1]);
  result.mtbf_hours = naive_mean(result.tbf_hours);
  result.exposure_mtbf_hours = spec.window_hours() / static_cast<double>(sorted.size());
  result.summary = naive_summary(result.tbf_hours);
  result.p75_hours = result.summary.p75;
  if (!fit_family) return result;

  std::vector<double> positive;
  for (double gap : insertion_sorted(result.tbf_hours))
    if (gap > 0.0) positive.push_back(gap);
  if (positive.size() >= 8) {
    if (auto family = reference_select_family(positive); family.ok())
      result.best_family = family.value();
  }
  return result;
}

/// TTR over a repair-time sample in record order (mirrors ttr_from_values).
Result<analysis::TtrResult> ttr_core(std::vector<double> values, bool fit_family = true) {
  if (values.empty())
    return Error(ErrorKind::kDomain, "TTR analysis needs at least one failure");
  analysis::TtrResult result;
  result.ttr_hours = std::move(values);
  result.mttr_hours = naive_mean(result.ttr_hours);
  result.summary = naive_summary(result.ttr_hours);
  if (!fit_family) return result;

  std::vector<double> positive;
  for (double value : insertion_sorted(result.ttr_hours))
    if (value > 0.0) positive.push_back(value);
  if (positive.size() >= 8) {
    if (auto family = reference_select_family(positive); family.ok())
      result.best_family = family.value();
  }
  return result;
}

/// Point-process clustering over event hours (mirrors
/// analyze_event_clustering with the auto-selected follow window).
Result<analysis::TemporalClustering> clustering_core(std::vector<double> event_hours) {
  if (event_hours.size() < 3)
    return Error(ErrorKind::kDomain, "clustering needs at least 3 events, have " +
                                         std::to_string(event_hours.size()));
  analysis::TemporalClustering result;
  result.events = event_hours.size();
  result.event_hours = insertion_sorted(std::move(event_hours));
  for (std::size_t i = 1; i < result.events; ++i)
    result.gaps_hours.push_back(result.event_hours[i] - result.event_hours[i - 1]);
  result.gap_summary = naive_summary(result.gaps_hours);

  const double mean_gap = result.gap_summary.mean;
  if (mean_gap <= 0.0)
    return Error(ErrorKind::kDomain, "all events are simultaneous; clustering undefined");
  const double follow_window = std::min(0.5 * mean_gap, 168.0);
  result.follow_window_hours = follow_window;
  result.cv = result.gap_summary.stddev / mean_gap;
  result.burstiness = (result.cv - 1.0) / (result.cv + 1.0);

  std::size_t followed = 0;
  for (double gap : result.gaps_hours)
    if (gap <= follow_window) ++followed;
  result.follow_probability =
      static_cast<double>(followed) / static_cast<double>(result.gaps_hours.size());
  result.poisson_follow_probability = -std::expm1(-follow_window / mean_gap);
  result.clustered =
      result.cv > 1.0 && result.follow_probability > result.poisson_follow_probability;
  return result;
}

}  // namespace

// --- the twelve study analyses ------------------------------------------

Result<analysis::CategoryBreakdown> ref_categories(const FailureLog& log) {
  if (log.empty()) return Error(ErrorKind::kDomain, "analyze_categories: empty log");

  analysis::CategoryBreakdown breakdown;
  breakdown.total_failures = log.size();
  const double total = static_cast<double>(log.size());

  for (Category category : vocabulary_enum_order(log.machine())) {
    std::size_t count = 0;
    for (const FailureRecord& record : log.records())
      if (record.category == category) ++count;
    breakdown.categories.push_back(
        {category, count, 100.0 * static_cast<double>(count) / total});
  }
  stable_insertion_sort(breakdown.categories,
                        [](const analysis::CategoryShare& a, const analysis::CategoryShare& b) {
                          return a.count > b.count;
                        });

  for (FailureClass cls :
       {FailureClass::kHardware, FailureClass::kSoftware, FailureClass::kUnknown}) {
    std::size_t count = 0;
    for (const FailureRecord& record : log.records())
      if (record.failure_class() == cls) ++count;
    breakdown.classes.push_back({cls, count, 100.0 * static_cast<double>(count) / total});
  }
  return breakdown;
}

Result<analysis::SoftwareLoci> ref_software_loci(const FailureLog& log, std::size_t top_n) {
  const auto software =
      select(log, [](const FailureRecord& r) { return r.failure_class() == FailureClass::kSoftware; });
  if (software.empty())
    return Error(ErrorKind::kDomain, "analyze_software_loci: no software-class failures in log");

  // Normalized locus per software record, in time order.
  std::vector<std::string> loci;
  std::size_t gpu_driver = 0;
  std::size_t unknown = 0;
  for (const FailureRecord* record : software) {
    std::string locus = to_lower(trim(record->root_locus));
    if (locus.empty() || locus == "unknown") {
      locus = "unknown";
      ++unknown;
    } else if (locus.find("driver") != std::string::npos ||
               locus.find("cuda") != std::string::npos ||
               locus.find("gpu direct") != std::string::npos) {
      ++gpu_driver;
    }
    loci.push_back(std::move(locus));
  }

  // Distinct loci in lexicographic order (the fast path's std::map order),
  // counted by linear rescans.
  std::vector<std::string> distinct;
  for (const std::string& locus : loci) {
    bool seen = false;
    for (const std::string& d : distinct) seen = seen || d == locus;
    if (!seen) distinct.push_back(locus);
  }
  stable_insertion_sort(distinct,
                        [](const std::string& a, const std::string& b) { return a < b; });

  analysis::SoftwareLoci result;
  result.software_failures = software.size();
  result.distinct_loci = distinct.size();
  const double total = static_cast<double>(software.size());
  result.gpu_driver_percent = 100.0 * static_cast<double>(gpu_driver) / total;
  result.unknown_percent = 100.0 * static_cast<double>(unknown) / total;

  for (const std::string& locus : distinct) {
    std::size_t count = 0;
    for (const std::string& l : loci)
      if (l == locus) ++count;
    result.top.push_back({locus, count, 100.0 * static_cast<double>(count) / total});
  }
  stable_insertion_sort(result.top,
                        [](const analysis::RootLocusShare& a, const analysis::RootLocusShare& b) {
                          return a.count > b.count;
                        });
  if (result.top.size() > top_n) result.top.resize(top_n);
  return result;
}

Result<analysis::NodeCounts> ref_node_counts(const FailureLog& log) {
  if (log.empty()) return Error(ErrorKind::kDomain, "analyze_node_counts: empty log");

  analysis::NodeCounts result;
  result.total_nodes = static_cast<std::size_t>(log.spec().node_count);

  // Failures per node by brute scan over all node ids.
  std::vector<std::size_t> per_node(result.total_nodes, 0);
  for (int node = 0; node < log.spec().node_count; ++node)
    for (const FailureRecord& record : log.records())
      if (record.node == node) ++per_node[static_cast<std::size_t>(node)];

  for (std::size_t count : per_node) {
    if (count == 0) continue;
    ++result.failed_nodes;
    result.max_failures_on_one_node = std::max(result.max_failures_on_one_node, count);
  }

  const double failed = static_cast<double>(result.failed_nodes);
  for (std::size_t k = 1; k <= result.max_failures_on_one_node; ++k) {
    std::size_t nodes = 0;
    for (std::size_t count : per_node)
      if (count == k) ++nodes;
    if (nodes == 0) continue;
    result.buckets.push_back({k, nodes, 100.0 * static_cast<double>(nodes) / failed});
  }
  result.percent_single_failure = result.percent_with(1);
  result.percent_multi_failure = 100.0 - result.percent_single_failure;

  for (const FailureRecord& record : log.records()) {
    if (per_node[static_cast<std::size_t>(record.node)] <= 1) continue;
    switch (record.failure_class()) {
      case FailureClass::kHardware: ++result.repeat_node_hardware_failures; break;
      case FailureClass::kSoftware: ++result.repeat_node_software_failures; break;
      case FailureClass::kUnknown: break;
    }
  }
  return result;
}

Result<analysis::GpuSlotDistribution> ref_gpu_slots(const FailureLog& log) {
  const auto attributed = select(log, slot_attributed);
  if (attributed.empty())
    return Error(ErrorKind::kDomain, "analyze_gpu_slots: no slot-attributed GPU failures");

  const int slots_per_node = log.spec().gpus_per_node;
  std::vector<std::size_t> counts(static_cast<std::size_t>(slots_per_node), 0);
  for (const FailureRecord* record : attributed)
    for (int slot : record->gpu_slots) ++counts[static_cast<std::size_t>(slot)];

  analysis::GpuSlotDistribution result;
  result.attributed_failures = attributed.size();
  for (std::size_t c : counts) result.total_involvements += c;
  const double total = static_cast<double>(result.total_involvements);
  const double mean_count = total / static_cast<double>(slots_per_node);
  for (int slot = 0; slot < slots_per_node; ++slot) {
    const auto count = counts[static_cast<std::size_t>(slot)];
    result.slots.push_back({slot, count, 100.0 * static_cast<double>(count) / total,
                            static_cast<double>(count) / log.spec().node_count});
    result.max_relative_excess =
        std::max(result.max_relative_excess, static_cast<double>(count) / mean_count - 1.0);
  }

  const std::vector<double> uniform(static_cast<std::size_t>(slots_per_node), 1.0);
  if (auto chi = stats::chi_square_gof(counts, uniform); chi.ok())
    result.uniformity_p_value = chi.value().p_value;
  return result;
}

Result<analysis::MultiGpuInvolvement> ref_multi_gpu(const FailureLog& log) {
  const auto attributed = select(log, slot_attributed);
  if (attributed.empty())
    return Error(ErrorKind::kDomain, "analyze_multi_gpu: no slot-attributed GPU failures");

  const int slots_per_node = log.spec().gpus_per_node;
  analysis::MultiGpuInvolvement result;
  result.attributed_failures = attributed.size();
  const double total = static_cast<double>(attributed.size());
  for (int gpus = 1; gpus <= slots_per_node; ++gpus) {
    std::size_t count = 0;
    for (const FailureRecord* record : attributed)
      if (record->gpu_slots.size() == static_cast<std::size_t>(gpus)) ++count;
    const double percent = 100.0 * static_cast<double>(count) / total;
    result.buckets.push_back({gpus, count, percent});
    if (gpus >= 2) result.percent_multi += percent;
  }
  return result;
}

Result<analysis::TbfResult> ref_tbf(const FailureLog& log, bool fit_family) {
  return tbf_core(log.spec(),
                  hours_of_stream(log, select(log, [](const FailureRecord&) { return true; })),
                  fit_family);
}

Result<analysis::TbfResult> ref_tbf_category(const FailureLog& log, Category category) {
  auto result = tbf_core(log.spec(), hours_of_stream(log, select(log, [category](
                                                                          const FailureRecord& r) {
                                       return r.category == category;
                                     })));
  if (!result.ok())
    return result.error().with_context("category " + std::string(data::to_string(category)));
  return result;
}

Result<analysis::TbfResult> ref_tbf_class(const FailureLog& log, FailureClass cls) {
  auto result = tbf_core(
      log.spec(), hours_of_stream(log, select(log, [cls](const FailureRecord& r) {
                                    return r.failure_class() == cls;
                                  })));
  if (!result.ok())
    return result.error().with_context("class " + std::string(data::to_string(cls)));
  return result;
}

Result<std::vector<analysis::CategoryTbf>> ref_tbf_by_category(const FailureLog& log,
                                                               std::size_t min_failures) {
  std::vector<analysis::CategoryTbf> rows;
  for (Category category : data::categories_for(log.machine())) {
    const auto stream =
        select(log, [category](const FailureRecord& r) { return r.category == category; });
    if (stream.size() < std::max<std::size_t>(min_failures, 2)) continue;
    const std::vector<double> hours = insertion_sorted(hours_of_stream(log, stream));
    std::vector<double> gaps;
    for (std::size_t i = 1; i < hours.size(); ++i) gaps.push_back(hours[i] - hours[i - 1]);
    rows.push_back({category, stream.size(), naive_box(gaps), naive_mean(gaps),
                    log.spec().window_hours() / static_cast<double>(hours.size())});
  }
  if (rows.empty())
    return Error(ErrorKind::kDomain, "analyze_tbf_by_category: no category has enough failures");
  stable_insertion_sort(rows, [](const analysis::CategoryTbf& a, const analysis::CategoryTbf& b) {
    return a.mtbf_hours < b.mtbf_hours;
  });
  return rows;
}

Result<analysis::TemporalClustering> ref_multi_gpu_clustering(const FailureLog& log) {
  auto result = clustering_core(
      hours_of_stream(log, select(log, [](const FailureRecord& r) { return r.multi_gpu(); })));
  if (!result.ok()) return result.error().with_context("multi-GPU failure stream");
  return result;
}

Result<analysis::TtrResult> ref_ttr(const FailureLog& log, bool fit_family) {
  return ttr_core(ttr_of_stream(select(log, [](const FailureRecord&) { return true; })),
                  fit_family);
}

Result<analysis::TtrResult> ref_ttr_category(const FailureLog& log, Category category) {
  auto result = ttr_core(ttr_of_stream(
      select(log, [category](const FailureRecord& r) { return r.category == category; })));
  if (!result.ok())
    return result.error().with_context("category " + std::string(data::to_string(category)));
  return result;
}

Result<analysis::TtrResult> ref_ttr_class(const FailureLog& log, FailureClass cls) {
  auto result = ttr_core(
      ttr_of_stream(select(log, [cls](const FailureRecord& r) { return r.failure_class() == cls; })));
  if (!result.ok())
    return result.error().with_context("class " + std::string(data::to_string(cls)));
  return result;
}

Result<std::vector<analysis::CategoryTtr>> ref_ttr_by_category(const FailureLog& log,
                                                               std::size_t min_failures) {
  std::vector<analysis::CategoryTtr> rows;
  const double total = static_cast<double>(log.size());
  for (Category category : data::categories_for(log.machine())) {
    const auto stream =
        select(log, [category](const FailureRecord& r) { return r.category == category; });
    if (stream.size() < std::max<std::size_t>(min_failures, 1)) continue;
    const std::vector<double> values = ttr_of_stream(stream);
    rows.push_back({category, stream.size(),
                    100.0 * static_cast<double>(stream.size()) / total, naive_box(values),
                    naive_mean(values)});
  }
  if (rows.empty())
    return Error(ErrorKind::kDomain, "analyze_ttr_by_category: no category has enough failures");
  stable_insertion_sort(rows, [](const analysis::CategoryTtr& a, const analysis::CategoryTtr& b) {
    return a.mttr_hours < b.mttr_hours;
  });
  return rows;
}

Result<std::vector<analysis::CategoryBurstiness>> ref_category_burstiness(
    const FailureLog& log, std::size_t min_failures) {
  std::vector<analysis::CategoryBurstiness> rows;
  for (Category category : data::categories_for(log.machine())) {
    const auto stream =
        select(log, [category](const FailureRecord& r) { return r.category == category; });
    if (stream.size() < std::max<std::size_t>(min_failures, 3)) continue;
    auto clustering = clustering_core(hours_of_stream(log, stream));
    if (!clustering.ok()) continue;
    rows.push_back({category, clustering.value().events, clustering.value().cv,
                    clustering.value().burstiness});
  }
  if (rows.empty())
    return Error(ErrorKind::kDomain, "analyze_category_burstiness: no category has enough events");
  stable_insertion_sort(rows,
                        [](const analysis::CategoryBurstiness& a,
                           const analysis::CategoryBurstiness& b) {
                          return a.burstiness > b.burstiness;
                        });
  return rows;
}

Result<analysis::SeasonalAnalysis> ref_seasonal(const FailureLog& log) {
  if (log.empty()) return Error(ErrorKind::kDomain, "analyze_seasonal: empty log");

  analysis::SeasonalAnalysis result;

  // Exposure by a naive civil-day walk: each day (or partial day at the
  // window edges) contributes to its month separately.  The fast path
  // walks whole months; the two reassociate the same sum, so the oracle
  // compares exposure-derived numbers with a relative bound.
  {
    TimePoint cursor = log.spec().log_start;
    const TimePoint end = log.spec().log_end;
    while (cursor < end) {
      const CivilDateTime civil = cursor.to_civil();
      CivilDateTime next_day{civil.year, civil.month, civil.day, 0, 0, 0};
      ++next_day.day;
      if (next_day.day > days_in_month(next_day.year, next_day.month)) {
        next_day.day = 1;
        if (++next_day.month > 12) {
          next_day.month = 1;
          ++next_day.year;
        }
      }
      TimePoint day_end = TimePoint::from_civil(next_day);
      if (day_end > end) day_end = end;
      result.exposure_days[static_cast<std::size_t>(civil.month - 1)] +=
          hours_between(cursor, day_end) / 24.0;
      cursor = day_end;
    }
  }

  std::vector<double> densities, medians;
  std::vector<double> first_half, second_half;
  for (int month = 1; month <= 12; ++month) {
    const auto idx = static_cast<std::size_t>(month - 1);
    std::vector<double> ttr;
    for (const FailureRecord& record : log.records())
      if (record.time.month() == month) ttr.push_back(record.ttr_hours);

    auto& slot = result.monthly[idx];
    slot.month = month;
    slot.failures = ttr.size();
    result.failure_counts[idx] = ttr.size();
    if (result.exposure_days[idx] > 0.0)
      result.failures_per_day[idx] =
          static_cast<double>(ttr.size()) / result.exposure_days[idx];
    if (!ttr.empty()) {
      slot.box = naive_box(ttr);
      densities.push_back(result.failures_per_day[idx]);
      medians.push_back(slot.box->median);
    }
    auto& half = month <= 6 ? first_half : second_half;
    half.insert(half.end(), ttr.begin(), ttr.end());
  }

  if (!first_half.empty())
    result.first_half_median_ttr = naive_quantile(insertion_sorted(first_half), 0.5);
  if (!second_half.empty())
    result.second_half_median_ttr = naive_quantile(insertion_sorted(second_half), 0.5);

  if (densities.size() >= 3) {
    if (auto r = stats::pearson(densities, medians); r.ok())
      result.pearson_density_ttr = r.value();
    if (auto rho = stats::spearman(densities, medians); rho.ok())
      result.spearman_density_ttr = rho.value();
  }
  return result;
}

Result<analysis::PerfErrorProportionality> ref_perf_error_prop(const FailureLog& log) {
  if (log.empty()) return Error(ErrorKind::kDomain, "analyze_perf_error_prop: empty log");
  analysis::PerfErrorProportionality result;
  result.mtbf_hours = log.spec().window_hours() / static_cast<double>(log.size());
  result.rpeak_pflops = log.spec().rpeak_pflops;
  result.pflop_hours_per_failure_free_period = result.rpeak_pflops * result.mtbf_hours;
  result.components = log.spec().total_gpu_cpu_components();
  result.pflop_hours_per_component =
      result.pflop_hours_per_failure_free_period / static_cast<double>(result.components);
  return result;
}

Result<analysis::StudyReport> ref_run_study(const FailureLog& log) {
  if (log.empty()) return Error(ErrorKind::kDomain, "run_study: empty log");

  analysis::StudyReport report;

  // Required analyses: a failure aborts the study with the task name as
  // context, exactly as the pooled run_study reports it.
  {
    auto categories = ref_categories(log);
    if (!categories.ok()) return categories.error().with_context("run_study: categories");
    report.categories = std::move(categories).value();
  }
  {
    auto node_counts = ref_node_counts(log);
    if (!node_counts.ok()) return node_counts.error().with_context("run_study: node_counts");
    report.node_counts = std::move(node_counts).value();
  }
  {
    auto ttr = ref_ttr(log, /*fit_family=*/false);
    if (!ttr.ok()) return ttr.error().with_context("run_study: ttr");
    report.ttr = std::move(ttr).value();
  }
  {
    auto seasonal = ref_seasonal(log);
    if (!seasonal.ok()) return seasonal.error().with_context("run_study: seasonal");
    report.seasonal = std::move(seasonal).value();
  }
  {
    auto perf = ref_perf_error_prop(log);
    if (!perf.ok()) return perf.error().with_context("run_study: perf_error_prop");
    report.perf_error_prop = std::move(perf).value();
  }

  // Optional analyses: a failure lands in `skipped`, in registration
  // order, carrying the analysis error verbatim.
  const auto optional_slot = [&report](const std::string& name, auto result, auto& slot) {
    if (result.ok()) {
      slot = std::move(result).value();
    } else {
      report.skipped.push_back({name, result.error()});
    }
  };
  optional_slot("software_loci", ref_software_loci(log), report.software_loci);
  optional_slot("gpu_slots", ref_gpu_slots(log), report.gpu_slots);
  optional_slot("multi_gpu", ref_multi_gpu(log), report.multi_gpu);
  optional_slot("tbf", ref_tbf(log, /*fit_family=*/false), report.tbf);
  optional_slot("tbf_by_category", ref_tbf_by_category(log), report.tbf_by_category);
  optional_slot("multi_gpu_clustering", ref_multi_gpu_clustering(log),
                report.multi_gpu_clustering);
  optional_slot("ttr_by_category", ref_ttr_by_category(log), report.ttr_by_category);
  return report;
}

}  // namespace tsufail::testkit
