// Performance-error-proportionality (RQ4, Section III).
//
// The paper proposes benchmarking systems by "useful work done per
// failure-free period": total FLOP per MTBF, i.e. Rpeak x MTBF.  This
// analyzer computes the metric for one machine and the cross-generation
// comparison the paper walks through (compute ratio vs MTBF ratio vs the
// combined metric, and the per-component normalization argument).
#pragma once

#include "data/log_index.h"

namespace tsufail::analysis {

struct PerfErrorProportionality {
  double mtbf_hours = 0.0;            ///< exposure MTBF (window / failures)
  double rpeak_pflops = 0.0;
  /// Rpeak x MTBF: peak FLOP achievable in a mean failure-free period,
  /// in units of PFlop-hours (1 PFlop-hour = 3.6e18 FLOP).
  double pflop_hours_per_failure_free_period = 0.0;
  /// Same metric normalized by GPU+CPU component count, exposing whether
  /// reliability kept pace with density.
  double pflop_hours_per_component = 0.0;
  int components = 0;
};

struct GenerationComparison {
  PerfErrorProportionality older;     ///< e.g. Tsubame-2
  PerfErrorProportionality newer;     ///< e.g. Tsubame-3
  double compute_ratio = 0.0;         ///< newer Rpeak / older Rpeak (~8x)
  double mtbf_ratio = 0.0;            ///< newer MTBF / older MTBF (~4x)
  double metric_ratio = 0.0;          ///< combined FLOP-per-MTBF ratio
  double component_ratio = 0.0;       ///< older components / newer (~2.2x)
  /// True iff MTBF improved more than the component count shrank — the
  /// paper's "not simply a side-effect of fewer components" argument.
  bool reliability_outpaced_shrinkage = false;
};

/// Metric for one log. Errors: empty log.
Result<PerfErrorProportionality> analyze_perf_error_prop(const data::LogIndex& index);

/// Cross-generation comparison. Errors: either log empty.
Result<GenerationComparison> compare_generations(const data::LogIndex& older,
                                                 const data::LogIndex& newer);

}  // namespace tsufail::analysis
