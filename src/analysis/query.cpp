#include "analysis/query.h"

#include <cstdio>
#include <vector>

#include "analysis/category_breakdown.h"
#include "analysis/gpu_slots.h"
#include "analysis/multi_gpu.h"
#include "analysis/node_counts.h"
#include "analysis/perf_error_prop.h"
#include "analysis/seasonal.h"
#include "analysis/software_loci.h"
#include "analysis/tbf.h"
#include "analysis/temporal_cluster.h"
#include "analysis/ttr.h"

namespace tsufail::analysis {
namespace {

// Fragments are "key: value" lines.  %.10g keeps the text readable while
// still exposing any drift between the incremental and batch index paths
// well below the oracle's ULP tiers.
void kv(std::string& out, std::string_view key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  out.append(key).append(": ").append(buffer).push_back('\n');
}

void kv(std::string& out, std::string_view key, std::size_t value) {
  out.append(key).append(": ").append(std::to_string(value)).push_back('\n');
}

void kv(std::string& out, std::string_view key, std::string_view value) {
  out.append(key).append(": ").append(value).push_back('\n');
}

void summary_lines(std::string& out, std::string_view prefix, const stats::Summary& s) {
  std::string p(prefix);
  kv(out, p + ".count", s.count);
  kv(out, p + ".mean", s.mean);
  kv(out, p + ".median", s.median);
  kv(out, p + ".p95", s.p95);
  kv(out, p + ".max", s.max);
}

Result<std::string> query_summary(const data::LogIndex& index) {
  std::string out;
  kv(out, "machine", index.spec().name);
  kv(out, "failures", index.size());
  kv(out, "window_hours", index.spec().window_hours());
  // No fragment prints a best-fit family, so none is fitted.
  auto tbf = analyze_tbf(index, /*fit_family=*/false);
  if (tbf.ok()) {
    kv(out, "mtbf_hours", tbf.value().exposure_mtbf_hours);
  } else {
    kv(out, "mtbf_hours", "undefined (" + tbf.error().message() + ")");
  }
  auto ttr = analyze_ttr(index, /*fit_family=*/false);
  if (ttr.ok()) kv(out, "mttr_hours", ttr.value().mttr_hours);
  auto nodes = analyze_node_counts(index);
  if (nodes.ok()) {
    kv(out, "failed_nodes", nodes.value().failed_nodes);
    kv(out, "total_nodes", nodes.value().total_nodes);
  }
  return out;
}

Result<std::string> query_categories(const data::LogIndex& index) {
  auto breakdown = analyze_categories(index);
  if (!breakdown.ok()) return breakdown.error();
  std::string out;
  kv(out, "total_failures", breakdown.value().total_failures);
  for (const auto& share : breakdown.value().categories) {
    if (share.count == 0) continue;
    std::string key = "category.";
    key += data::to_string(share.category);
    kv(out, key + ".count", share.count);
    kv(out, key + ".percent", share.percent);
  }
  return out;
}

Result<std::string> query_software_loci(const data::LogIndex& index) {
  auto loci = analyze_software_loci(index);
  if (!loci.ok()) return loci.error();
  std::string out;
  kv(out, "software_failures", loci.value().software_failures);
  kv(out, "distinct_loci", loci.value().distinct_loci);
  kv(out, "gpu_driver_percent", loci.value().gpu_driver_percent);
  kv(out, "unknown_percent", loci.value().unknown_percent);
  return out;
}

Result<std::string> query_node_counts(const data::LogIndex& index) {
  auto nodes = analyze_node_counts(index);
  if (!nodes.ok()) return nodes.error();
  std::string out;
  kv(out, "failed_nodes", nodes.value().failed_nodes);
  kv(out, "total_nodes", nodes.value().total_nodes);
  kv(out, "percent_single_failure", nodes.value().percent_single_failure);
  kv(out, "percent_multi_failure", nodes.value().percent_multi_failure);
  kv(out, "max_failures_on_one_node", nodes.value().max_failures_on_one_node);
  return out;
}

Result<std::string> query_gpu_slots(const data::LogIndex& index) {
  auto slots = analyze_gpu_slots(index);
  if (!slots.ok()) return slots.error();
  std::string out;
  kv(out, "attributed_failures", slots.value().attributed_failures);
  kv(out, "total_involvements", slots.value().total_involvements);
  kv(out, "max_relative_excess", slots.value().max_relative_excess);
  kv(out, "uniformity_p_value", slots.value().uniformity_p_value);
  return out;
}

Result<std::string> query_multi_gpu(const data::LogIndex& index) {
  auto multi = analyze_multi_gpu(index);
  if (!multi.ok()) return multi.error();
  std::string out;
  kv(out, "attributed_failures", multi.value().attributed_failures);
  kv(out, "percent_multi", multi.value().percent_multi);
  return out;
}

Result<std::string> query_tbf(const data::LogIndex& index) {
  auto tbf = analyze_tbf(index, /*fit_family=*/false);
  if (!tbf.ok()) return tbf.error();
  std::string out;
  kv(out, "mtbf_hours", tbf.value().mtbf_hours);
  kv(out, "exposure_mtbf_hours", tbf.value().exposure_mtbf_hours);
  kv(out, "p75_hours", tbf.value().p75_hours);
  summary_lines(out, "tbf", tbf.value().summary);
  return out;
}

Result<std::string> query_tbf_by_category(const data::LogIndex& index) {
  auto tbf = analyze_tbf_by_category(index);
  if (!tbf.ok()) return tbf.error();
  std::string out;
  for (const auto& category : tbf.value()) {
    std::string key = "tbf.";
    key += data::to_string(category.category);
    kv(out, key + ".failures", category.failures);
    kv(out, key + ".mtbf_hours", category.mtbf_hours);
  }
  return out;
}

Result<std::string> query_clustering(const data::LogIndex& index) {
  auto clustering = analyze_multi_gpu_clustering(index);
  if (!clustering.ok()) return clustering.error();
  std::string out;
  kv(out, "events", clustering.value().events);
  kv(out, "cv", clustering.value().cv);
  kv(out, "burstiness", clustering.value().burstiness);
  kv(out, "follow_probability", clustering.value().follow_probability);
  kv(out, "clustered", std::string_view(clustering.value().clustered ? "true" : "false"));
  return out;
}

Result<std::string> query_ttr(const data::LogIndex& index) {
  auto ttr = analyze_ttr(index, /*fit_family=*/false);
  if (!ttr.ok()) return ttr.error();
  std::string out;
  kv(out, "mttr_hours", ttr.value().mttr_hours);
  summary_lines(out, "ttr", ttr.value().summary);
  return out;
}

Result<std::string> query_ttr_by_category(const data::LogIndex& index) {
  auto ttr = analyze_ttr_by_category(index);
  if (!ttr.ok()) return ttr.error();
  std::string out;
  for (const auto& category : ttr.value()) {
    std::string key = "ttr.";
    key += data::to_string(category.category);
    kv(out, key + ".failures", category.failures);
    kv(out, key + ".mttr_hours", category.mttr_hours);
  }
  return out;
}

Result<std::string> query_seasonal(const data::LogIndex& index) {
  auto seasonal = analyze_seasonal(index);
  if (!seasonal.ok()) return seasonal.error();
  std::string out;
  for (int month = 0; month < 12; ++month) {
    std::string key = "month." + std::to_string(month + 1);
    kv(out, key + ".failures", seasonal.value().failure_counts[month]);
    kv(out, key + ".failures_per_day", seasonal.value().failures_per_day[month]);
  }
  kv(out, "first_half_median_ttr", seasonal.value().first_half_median_ttr);
  kv(out, "second_half_median_ttr", seasonal.value().second_half_median_ttr);
  return out;
}

Result<std::string> query_perf_error(const data::LogIndex& index) {
  auto perf = analyze_perf_error_prop(index);
  if (!perf.ok()) return perf.error();
  std::string out;
  kv(out, "mtbf_hours", perf.value().mtbf_hours);
  kv(out, "rpeak_pflops", perf.value().rpeak_pflops);
  kv(out, "pflop_hours_per_failure_free_period",
     perf.value().pflop_hours_per_failure_free_period);
  kv(out, "pflop_hours_per_component", perf.value().pflop_hours_per_component);
  return out;
}

using QueryFn = Result<std::string> (*)(const data::LogIndex&);

struct QueryEntry {
  QueryKey key;
  QueryFn run;
};

const QueryEntry kQueries[] = {
    {{"summary", "headline counts, MTBF, MTTR, failed nodes"}, query_summary},
    {{"categories", "per-category counts and shares (Fig 2)"}, query_categories},
    {{"software-loci", "software root-locus breakdown (Fig 3)"}, query_software_loci},
    {{"node-counts", "per-node failure distribution (Fig 4)"}, query_node_counts},
    {{"gpu-slots", "GPU slot distribution and uniformity (Fig 5)"}, query_gpu_slots},
    {{"multi-gpu", "multi-GPU involvement (Table III)"}, query_multi_gpu},
    {{"tbf", "time-between-failures statistics (Fig 6)"}, query_tbf},
    {{"tbf-by-category", "per-category TBF (Fig 7)"}, query_tbf_by_category},
    {{"clustering", "multi-GPU temporal clustering (Fig 8)"}, query_clustering},
    {{"ttr", "time-to-recovery statistics (Fig 9)"}, query_ttr},
    {{"ttr-by-category", "per-category TTR (Fig 10)"}, query_ttr_by_category},
    {{"seasonal", "monthly failure counts and TTR (Fig 11-12)"}, query_seasonal},
    {{"perf-error", "performance-error proportionality (RQ4)"}, query_perf_error},
};

}  // namespace

std::span<const QueryKey> query_keys() noexcept {
  static const std::vector<QueryKey>* keys = [] {
    auto* out = new std::vector<QueryKey>();
    for (const auto& entry : kQueries) out->push_back(entry.key);
    return out;
  }();
  return {keys->data(), keys->size()};
}

bool is_query_key(std::string_view key) noexcept {
  for (const auto& entry : kQueries) {
    if (entry.key.key == key) return true;
  }
  return false;
}

Result<std::string> run_query(std::string_view key, const data::LogIndex& index) {
  for (const auto& entry : kQueries) {
    if (entry.key.key == key) return entry.run(index);
  }
  return Error(ErrorKind::kNotFound, "unknown query key '" + std::string(key) + "'");
}

}  // namespace tsufail::analysis
