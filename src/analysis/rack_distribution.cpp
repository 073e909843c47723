#include "analysis/rack_distribution.h"

#include <algorithm>
#include <numeric>

#include "stats/hypothesis.h"
#include "stats/kernels.h"

namespace tsufail::analysis {

double gini_coefficient(std::vector<double> values) {
  if (values.empty()) return 0.0;
  stats::sort_ascending(values);
  const double total = std::accumulate(values.begin(), values.end(), 0.0);
  if (total <= 0.0) return 0.0;
  // G = (2 * sum_i i*x_(i) ) / (n * total) - (n + 1) / n, with 1-based i.
  double weighted = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    weighted += static_cast<double>(i + 1) * values[i];
  }
  const auto n = static_cast<double>(values.size());
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

Result<RackDistribution> analyze_racks(const data::LogIndex& index) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "analyze_racks: empty log");
  if (index.spec().nodes_per_rack <= 0)
    return Error(ErrorKind::kDomain, "analyze_racks: machine spec has no rack layout");

  const int rack_count = index.spec().rack_count();
  std::vector<std::size_t> counts(static_cast<std::size_t>(rack_count), 0);
  for (const auto& group : index.nodes()) {
    counts[static_cast<std::size_t>(index.spec().rack_of(group.node))] += group.count;
  }

  RackDistribution result;
  result.total_racks = static_cast<std::size_t>(rack_count);
  const double total = static_cast<double>(index.size());

  std::vector<double> expected;  // rack sizes (the last rack may be partial)
  for (int rack = 0; rack < rack_count; ++rack) {
    const int first = rack * index.spec().nodes_per_rack;
    const int size = std::min(index.spec().nodes_per_rack, index.spec().node_count - first);
    expected.push_back(static_cast<double>(size));
    const auto count = counts[static_cast<std::size_t>(rack)];
    result.racks_with_failures += count > 0;
    result.racks.push_back({rack, count, 100.0 * static_cast<double>(count) / total,
                            static_cast<double>(count) / static_cast<double>(size)});
  }
  std::stable_sort(result.racks.begin(), result.racks.end(),
                   [](const RackShare& a, const RackShare& b) { return a.failures > b.failures; });

  if (auto chi = stats::chi_square_gof(counts, expected); chi.ok())
    result.uniformity_p_value = chi.value().p_value;

  std::vector<double> rates;
  rates.reserve(result.racks.size());
  for (const auto& rack : result.racks) rates.push_back(static_cast<double>(rack.failures));
  result.gini = gini_coefficient(std::move(rates));

  std::size_t cumulative = 0;
  for (const auto& rack : result.racks) {  // already descending
    cumulative += rack.failures;
    ++result.racks_holding_half;
    if (static_cast<double>(cumulative) >= total / 2.0) break;
  }
  return result;
}

}  // namespace tsufail::analysis
