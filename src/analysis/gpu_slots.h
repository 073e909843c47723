// Figure 5: spatial distribution of GPU failures across the slots of a
// node (GPU 0 .. GPU N-1, numbered as in the paper's Figure 1 topology).
//
// A failure involving k GPUs contributes one count to each involved slot,
// so the per-slot counts measure slot involvement, which is what the
// paper's "different GPUs experience different numbers of failures" plots.
#pragma once

#include <vector>

#include "data/log_index.h"

namespace tsufail::analysis {

struct SlotShare {
  int slot = 0;
  std::size_t count = 0;       ///< failure involvements of this slot
  double percent = 0.0;        ///< of all slot involvements
  double per_node_average = 0; ///< involvements / node_count
};

struct GpuSlotDistribution {
  std::vector<SlotShare> slots;          ///< one entry per slot, ascending
  std::size_t attributed_failures = 0;   ///< GPU failures with slot info
  std::size_t total_involvements = 0;    ///< sum over slots
  /// Max over slots of (count / mean count) - 1: the paper's "GPU 1 has
  /// ~20% more failures" style imbalance measure.
  double max_relative_excess = 0.0;
  /// Chi-square p-value against a uniform slot distribution; small values
  /// reject spatial uniformity (the paper's conclusion).
  double uniformity_p_value = 1.0;

  double percent_of(int slot) const noexcept;
};

/// Computes the Figure 5 distribution from GPU-related records that carry
/// slot attribution.  Errors: no attributed GPU failures in the log.
Result<GpuSlotDistribution> analyze_gpu_slots(const data::LogIndex& index);

}  // namespace tsufail::analysis
