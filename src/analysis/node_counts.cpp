#include "analysis/node_counts.h"

#include <algorithm>
#include <map>

namespace tsufail::analysis {

double NodeCounts::percent_with(std::size_t k) const noexcept {
  for (const auto& bucket : buckets) {
    if (bucket.failures == k) return bucket.percent_of_failed;
  }
  return 0.0;
}

Result<NodeCounts> analyze_node_counts(const data::LogIndex& index) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "analyze_node_counts: empty log");

  const auto groups = index.nodes();

  NodeCounts result;
  result.failed_nodes = groups.size();
  result.total_nodes = static_cast<std::size_t>(index.spec().node_count);

  std::map<std::size_t, std::size_t> histogram;  // failures -> node count
  for (const auto& group : groups) {
    ++histogram[group.count];
    result.max_failures_on_one_node =
        std::max<std::size_t>(result.max_failures_on_one_node, group.count);
  }

  const double failed = static_cast<double>(result.failed_nodes);
  for (const auto& [failures, nodes] : histogram) {
    result.buckets.push_back({failures, nodes, 100.0 * static_cast<double>(nodes) / failed});
  }
  result.percent_single_failure = result.percent_with(1);
  result.percent_multi_failure = 100.0 - result.percent_single_failure;

  for (const auto& group : groups) {
    if (group.count <= 1) continue;  // repeat-failure nodes only
    for (std::uint32_t position : index.positions_of(group)) {
      switch (data::classify(index.category_of(position))) {
        case data::FailureClass::kHardware:
          ++result.repeat_node_hardware_failures;
          break;
        case data::FailureClass::kSoftware:
          ++result.repeat_node_software_failures;
          break;
        case data::FailureClass::kUnknown:
          break;  // the paper's 352/1 and 104/95 split covers HW/SW only
      }
    }
  }
  return result;
}

}  // namespace tsufail::analysis
