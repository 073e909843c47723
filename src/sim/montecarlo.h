// sim::montecarlo — deterministic sharded Monte Carlo engine for
// multi-replicate fleet studies.
//
// Every multi-replicate workload (knob ablations, what-if scaling
// sweeps, calibration checks) wants the same loop: generate a log per
// seed, run the full study, and average scalar metrics across replicates.
// run_sweep fuses that loop and fans it across the library's worker pool
// (util/parallel.h):
//
//   * Determinism contract.  Replicate r of every variant is generated
//     from replicate_seed(base_seed, r) — a splitmix-style fork of
//     (base_seed, r) — and each (variant, replicate) cell writes only its
//     own result slot, so the SweepResult is bit-identical at any `jobs`
//     count.  All variants share the same per-replicate seed set (common
//     random numbers), which cancels sampling noise out of cross-variant
//     deltas — exactly what the knob ablations compare.
//
//   * Fused pipeline.  Each worker generates, indexes, and analyzes a
//     replicate in one pass on one thread, recycling the record
//     allocation between its replicates as its per-worker state
//     (generate_log's buffer overload + FailureLog::take_records).  The
//     default stage runs the scalars-only study (StudyOptions::
//     scalars_only): it skips the loci ranking, which study_metrics
//     never reads, and keeps only the scalar metrics.
//
//   * Cross-replicate aggregates.  Per metric: mean, sample stddev, and
//     a percentile-bootstrap CI of the mean, for the metrics
//     SweepOptions::metrics names (all by default).  After the cells, one
//     task per (variant, metric) runs on the same worker pool.  Metric m
//     (its first-appearance index among every metric the variant's
//     replicates produced) bootstraps from a seed fixed by (base_seed,
//     variant, m), so a CI depends neither on jobs nor on which other
//     metrics are aggregated.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/study.h"
#include "sim/models.h"
#include "stats/bootstrap.h"

namespace tsufail::sim {

/// The RNG stream seed for replicate `replicate_index` of a sweep with
/// `base_seed`.  An alias for util's fork_seed(base, r) — the library-wide
/// seed-derivation contract: stable across releases (tests pin it),
/// uncorrelated between adjacent indices, and never identical to the
/// base seed itself.
std::uint64_t replicate_seed(std::uint64_t base_seed, std::uint64_t replicate_index) noexcept;

/// One named scalar pulled out of a replicate (see study_metrics).
struct MetricSample {
  std::string name;
  double value = 0.0;
};

/// A custom per-replicate scoring stage: given one generated log and the
/// replicate's forked seed, produce the cell's metric samples — e.g. run
/// a repair-policy schedule instead of the default full study.  Any
/// randomness inside the stage must derive from fork_seed(seed, k) with
/// fixed stream constants k: run_sweep calls stages concurrently from
/// worker threads and requires bit-identical samples at any jobs count.
using ReplicateStage =
    std::function<Result<std::vector<MetricSample>>(const data::FailureLog&, std::uint64_t seed)>;

/// One model variant of a sweep (e.g. an ablation arm or a scaled
/// machine).  Labels must be unique within one run_sweep call.
struct SweepVariant {
  std::string label;
  MachineModel model;
  /// Per-variant stage override; empty = SweepOptions::stage, then the
  /// default study pipeline.
  ReplicateStage stage = {};
};

struct SweepOptions {
  std::uint64_t base_seed = 1;
  std::size_t replicates = 10;  ///< seeds per variant
  /// Worker threads across (variant, replicate) cells and then across
  /// (variant, metric) aggregates: 1 = serial on the calling thread, 0 =
  /// one per hardware thread.  Results are bit-identical for every value.
  std::size_t jobs = 1;
  /// Names of the metrics to aggregate; empty = every metric.  A listed
  /// name that no replicate produced gets no aggregate.  Replicates keep
  /// all their metric samples either way.
  std::vector<std::string> metrics;
  double ci_level = 0.95;                  ///< aggregate bootstrap CI level
  std::size_t bootstrap_replicates = 1000; ///< aggregate bootstrap resamples
  /// Default scoring stage for every variant that does not override it;
  /// empty = the scalars-only study, then study_metrics.
  ReplicateStage stage;
};

/// One generated-and-analyzed replicate of one variant.
struct ReplicateResult {
  std::size_t replicate = 0;   ///< index within the variant
  std::uint64_t seed = 0;      ///< replicate_seed(base_seed, replicate)
  std::size_t failures = 0;    ///< generated log size
  std::vector<MetricSample> metrics;
};

/// Cross-replicate aggregate of one metric.
struct MetricAggregate {
  std::string name;
  std::size_t n = 0;       ///< replicates where the metric was defined
  double mean = 0.0;
  double stddev = 0.0;     ///< sample standard deviation (0 when n == 1)
  stats::ConfidenceInterval mean_ci;  ///< percentile bootstrap of the mean
};

struct VariantSweep {
  std::string label;
  std::vector<ReplicateResult> replicates;
  /// One entry per aggregated metric name (SweepOptions::metrics), in
  /// first-appearance order across the replicates.
  std::vector<MetricAggregate> aggregates;

  /// Aggregate by metric name, or nullptr if no replicate produced it or
  /// it was not aggregated.
  const MetricAggregate* find(std::string_view name) const noexcept;
  /// Mean of a metric, or `fallback` if absent.
  double mean_of(std::string_view name, double fallback = 0.0) const noexcept;
};

struct SweepResult {
  std::vector<VariantSweep> variants;  ///< in input order

  const VariantSweep* find(std::string_view label) const noexcept;
};

/// The scalar metrics extracted from one study report, with stable names
/// ("mtbf_hours", "mttr_hours", "percent_multi_failure_nodes",
/// "mtbf_gpu_hours", ...).  Metrics undefined for the log (absent
/// optional analyses, categories below the reporting threshold) are
/// simply not emitted.
std::vector<MetricSample> study_metrics(const analysis::StudyReport& report);

/// Runs `options.replicates` seeds of every variant and aggregates.
/// Errors: no variants, zero replicates, duplicate labels, any replicate
/// failing to generate/analyze (the error names the variant and
/// replicate; the first failing cell in deterministic order wins), or any
/// aggregate failing (it names the variant and metric; the first in
/// (variant, metric) order wins).
Result<SweepResult> run_sweep(std::span<const SweepVariant> variants,
                              const SweepOptions& options);

/// Single-variant convenience: sweeps `model` under the label of its
/// spec name.
Result<SweepResult> run_sweep(const MachineModel& model, const SweepOptions& options);

}  // namespace tsufail::sim
