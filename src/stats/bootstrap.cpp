#include "stats/bootstrap.h"

#include <algorithm>
#include <array>
#include <vector>

#include "stats/descriptive.h"
#include "stats/kernels.h"
#include "stats/simd.h"

namespace tsufail::stats {
namespace {

/// Replicates per RNG shard.  The shard partition is a function of
/// `replicates` alone, so shard streams are fixed by the call.
constexpr std::size_t kShardSize = 128;

/// Shards per work unit: one per 64-bit lane of the stats::simd
/// multi-lane engine, so a single vectorized fill advances four shard
/// streams at once.  The grouping is the same at every dispatch level
/// (scalar dispatch just steps the four columns in a scalar loop), so it
/// changes which statistic call runs when — never which indices a shard
/// draws or which slot its statistic lands in.
constexpr std::size_t kLaneCount = simd::XoshiroLanes::kLanes;

}  // namespace

Result<ConfidenceInterval> bootstrap_ci(
    std::span<const double> sample,
    const std::function<double(std::span<const double>)>& statistic, Rng& rng,
    std::size_t replicates, double level) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "bootstrap_ci: empty sample");
  if (replicates == 0)
    return Error(ErrorKind::kDomain, "bootstrap_ci: need at least one replicate");
  if (!(level > 0.0 && level < 1.0))
    return Error(ErrorKind::kDomain, "bootstrap_ci: level must be in (0,1)");

  ConfidenceInterval ci;
  ci.point = statistic(sample);  // hoisted: computed once, before any resampling
  ci.level = level;

  // Advance the caller's generator once so consecutive calls differ, then
  // fork one child stream per shard off the advanced state (XoshiroLanes
  // seeds lane L of group G from fork(G * kLaneCount + L), exactly the
  // fork the scalar per-shard loop used).
  rng();
  const std::size_t n = sample.size();
  const std::size_t shard_count = (replicates + kShardSize - 1) / kShardSize;
  const std::size_t group_count = (shard_count + kLaneCount - 1) / kLaneCount;

  std::vector<double> replicate_stats(replicates);
  // Per-replicate fill is split draw-then-gather: the four shard streams
  // of a group advance in lockstep (one vectorized fill per replicate
  // row), each lane's draw sequence bit-identical to calling
  // uniform_index on its fork directly, then the value movement is a
  // contiguous gather per lane.  Same indices per shard, same statistic
  // slot per replicate — bit-identical resamples and CI bounds.
  std::array<std::vector<std::uint32_t>, kLaneCount> indices;
  std::uint32_t* outs[kLaneCount];
  for (std::size_t lane = 0; lane < kLaneCount; ++lane) {
    indices[lane].resize(n);
    outs[lane] = indices[lane].data();
  }
  std::vector<double> resample(n);
  for (std::size_t group = 0; group < group_count; ++group) {
    simd::XoshiroLanes lanes(rng, group * kLaneCount);
    std::size_t lane_rows[kLaneCount];
    std::size_t rows = 0;
    for (std::size_t lane = 0; lane < kLaneCount; ++lane) {
      const std::size_t begin = (group * kLaneCount + lane) * kShardSize;
      lane_rows[lane] = begin < replicates ? std::min(kShardSize, replicates - begin) : 0;
      rows = std::max(rows, lane_rows[lane]);
    }
    for (std::size_t row = 0; row < rows; ++row) {
      // Lanes already past their shard's last replicate keep drawing in
      // lockstep; those draws are discarded and the stream is never read
      // again, so finished lanes cannot perturb any result.
      lanes.fill_indices(n, n, outs);
      for (std::size_t lane = 0; lane < kLaneCount; ++lane) {
        if (row >= lane_rows[lane]) continue;
        gather_into(sample, indices[lane], resample);
        replicate_stats[(group * kLaneCount + lane) * kShardSize + row] = statistic(resample);
      }
    }
  }

  sort_ascending(replicate_stats);
  const double alpha = (1.0 - level) / 2.0;
  ci.low = quantile_sorted(replicate_stats, alpha).value();
  ci.high = quantile_sorted(replicate_stats, 1.0 - alpha).value();
  return ci;
}

Result<ConfidenceInterval> bootstrap_mean_ci(std::span<const double> sample, Rng& rng,
                                             std::size_t replicates, double level) {
  return bootstrap_ci(
      sample, [](std::span<const double> s) { return mean(s); }, rng, replicates, level);
}

Result<ConfidenceInterval> bootstrap_median_ci(std::span<const double> sample, Rng& rng,
                                               std::size_t replicates, double level) {
  return bootstrap_ci(
      sample, [](std::span<const double> s) { return quantile(s, 0.5).value_or(0.0); }, rng,
      replicates, level);
}

}  // namespace tsufail::stats
