#include "analysis/gpu_slots.h"

#include <algorithm>

#include "stats/hypothesis.h"

namespace tsufail::analysis {

double GpuSlotDistribution::percent_of(int slot) const noexcept {
  for (const auto& share : slots) {
    if (share.slot == slot) return share.percent;
  }
  return 0.0;
}

Result<GpuSlotDistribution> analyze_gpu_slots(const data::LogIndex& index) {
  const int slots_per_node = index.spec().gpus_per_node;
  std::vector<std::size_t> counts(static_cast<std::size_t>(slots_per_node), 0);

  const auto attributed = index.gpu_attributed();
  for (std::uint32_t position : attributed) {
    for (int slot : index.columns().gpu_slots_of(position))
      counts[static_cast<std::size_t>(slot)]++;
  }
  if (attributed.empty())
    return Error(ErrorKind::kDomain, "analyze_gpu_slots: no slot-attributed GPU failures");

  GpuSlotDistribution result;
  result.attributed_failures = attributed.size();
  for (std::size_t c : counts) result.total_involvements += c;
  const double total = static_cast<double>(result.total_involvements);
  const double mean_count = total / static_cast<double>(slots_per_node);
  for (int slot = 0; slot < slots_per_node; ++slot) {
    const auto count = counts[static_cast<std::size_t>(slot)];
    result.slots.push_back({slot, count, 100.0 * static_cast<double>(count) / total,
                            static_cast<double>(count) / index.spec().node_count});
    result.max_relative_excess =
        std::max(result.max_relative_excess, static_cast<double>(count) / mean_count - 1.0);
  }

  const std::vector<double> uniform(static_cast<std::size_t>(slots_per_node), 1.0);
  if (auto chi = stats::chi_square_gof(counts, uniform); chi.ok())
    result.uniformity_p_value = chi.value().p_value;
  return result;
}

}  // namespace tsufail::analysis
