// RQ3 / Table III: how many GPUs are involved per GPU failure.
//
// Counts slot-attributed GPU-hardware failures by the number of GPUs
// involved (1 .. gpus_per_node), mirroring the paper's Table III where
// ~70% of Tsubame-2 GPU failures hit multiple GPUs but > 92% of
// Tsubame-3's hit exactly one.
#pragma once

#include <vector>

#include "data/log_index.h"

namespace tsufail::analysis {

struct InvolvementBucket {
  int gpus = 0;            ///< exactly this many GPUs involved
  std::size_t count = 0;
  double percent = 0.0;    ///< of attributed GPU failures
};

struct MultiGpuInvolvement {
  std::size_t attributed_failures = 0;    ///< Table III "Total" row
  std::vector<InvolvementBucket> buckets; ///< 1 .. gpus_per_node, all present
  double percent_multi = 0.0;             ///< failures involving >= 2 GPUs

  double percent_with(int gpus) const noexcept;
  std::size_t count_with(int gpus) const noexcept;
};

/// Computes Table III from slot-attributed GPU failures.
/// Errors: no attributed GPU failures.
Result<MultiGpuInvolvement> analyze_multi_gpu(const data::LogIndex& index);

}  // namespace tsufail::analysis
