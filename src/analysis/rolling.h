// Rolling-window reliability trends over the system lifetime.
//
// The paper's cross-generation comparison is two snapshots; operators
// also need the within-lifetime view: is MTBF improving as early
// hardware problems are burned in, is MTTR drifting as staff learn the
// machine?  This analyzer slides a window over the log and fits linear
// trends to the per-window failure rate and MTTR.
#pragma once

#include <vector>

#include "data/log_index.h"
#include "stats/regression.h"

namespace tsufail::analysis {

struct RollingWindow {
  double center_hours = 0.0;   ///< window center, hours since log start
  std::size_t failures = 0;
  double failures_per_day = 0.0;
  double mtbf_hours = 0.0;     ///< window length / failures (0 if none)
  double mttr_hours = 0.0;     ///< mean TTR of the window's failures
};

struct RollingTrends {
  double window_hours = 0.0;
  double step_hours = 0.0;
  std::vector<RollingWindow> windows;
  /// Trend of the failure rate (failures/day) against window center.
  /// Negative significant slope = the machine is getting more reliable.
  stats::LinearFit rate_trend;
  /// Trend of the per-window MTTR against window center.
  stats::LinearFit mttr_trend;
  /// Failure rate of the first quarter of life over the last quarter
  /// (> 1 = infant mortality / burn-in).
  double early_late_rate_ratio = 0.0;
};

/// Slides a `window_days` window by `step_days` over the log.
/// Errors: empty log, non-positive window/step, or fewer than 3 windows
/// (no trend can be fit).
Result<RollingTrends> analyze_rolling_trends(const data::LogIndex& index,
                                             double window_days = 60.0,
                                             double step_days = 30.0);

}  // namespace tsufail::analysis
