// Nonparametric bootstrap confidence intervals.
//
// The logs are single realizations (897 and 338 failures); every headline
// number (MTBF, MTTR, category shares) deserves an uncertainty estimate.
// We use the percentile bootstrap, adequate at these sample sizes.
//
// Determinism contract: the resamples are drawn in fixed-size shards,
// each from its own child RNG forked off the caller's generator, and the
// shard partition depends only on `replicates`.  The returned interval
// is therefore bit-identical at every SIMD dispatch level, and the
// caller's generator advances exactly once per call (so consecutive
// calls still see fresh resamples).  The loop is serial: callers that
// want parallelism run independent intervals concurrently.
#pragma once

#include <functional>
#include <span>

#include "util/error.h"
#include "util/rng.h"

namespace tsufail::stats {

struct ConfidenceInterval {
  double point = 0.0;   ///< statistic on the original sample
  double low = 0.0;     ///< lower percentile bound
  double high = 0.0;    ///< upper percentile bound
  double level = 0.95;  ///< nominal coverage
};

/// Percentile-bootstrap CI of an arbitrary statistic.
/// `statistic` must accept any resample of the original length, and must
/// be a pure function of its argument: shards run four per multi-lane
/// RNG group, so statistic calls interleave across shards — only the
/// per-replicate result slot is guaranteed, not the call order.
/// Errors: empty sample, replicates == 0, level outside (0, 1).
Result<ConfidenceInterval> bootstrap_ci(
    std::span<const double> sample,
    const std::function<double(std::span<const double>)>& statistic, Rng& rng,
    std::size_t replicates = 1000, double level = 0.95);

/// Convenience wrappers for the two statistics the benches report.
Result<ConfidenceInterval> bootstrap_mean_ci(std::span<const double> sample, Rng& rng,
                                             std::size_t replicates = 1000, double level = 0.95);
Result<ConfidenceInterval> bootstrap_median_ci(std::span<const double> sample, Rng& rng,
                                               std::size_t replicates = 1000, double level = 0.95);

}  // namespace tsufail::stats
