#include "analysis/multi_gpu.h"

namespace tsufail::analysis {

double MultiGpuInvolvement::percent_with(int gpus) const noexcept {
  for (const auto& bucket : buckets) {
    if (bucket.gpus == gpus) return bucket.percent;
  }
  return 0.0;
}

std::size_t MultiGpuInvolvement::count_with(int gpus) const noexcept {
  for (const auto& bucket : buckets) {
    if (bucket.gpus == gpus) return bucket.count;
  }
  return 0;
}

Result<MultiGpuInvolvement> analyze_multi_gpu(const data::LogIndex& index) {
  const int slots_per_node = index.spec().gpus_per_node;
  std::vector<std::size_t> counts(static_cast<std::size_t>(slots_per_node) + 1, 0);

  const auto attributed = index.gpu_attributed();
  for (std::uint32_t position : attributed) ++counts[index.gpu_slots_of(position).size()];
  if (attributed.empty())
    return Error(ErrorKind::kDomain, "analyze_multi_gpu: no slot-attributed GPU failures");

  MultiGpuInvolvement result;
  result.attributed_failures = attributed.size();
  const double total = static_cast<double>(attributed.size());
  for (int gpus = 1; gpus <= slots_per_node; ++gpus) {
    const auto count = counts[static_cast<std::size_t>(gpus)];
    const double percent = 100.0 * static_cast<double>(count) / total;
    result.buckets.push_back({gpus, count, percent});
    if (gpus >= 2) result.percent_multi += percent;
  }
  return result;
}

}  // namespace tsufail::analysis
