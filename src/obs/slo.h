// obs::slo — sliding-window service-level objectives over the metrics
// registry, with Google-SRE-style multi-window burn-rate alerting.
//
// The engine never touches the hot path: callers feed it a
// MetricsSnapshot once per tick (the serve daemon ticks once a second),
// and each tick appends one cumulative entry per objective to a bounded
// ring.  Evaluation diffs the newest entry against a baseline entry one
// window back, so a window's bad-event fraction costs O(1) per
// objective regardless of traffic volume.
//
// Burn rate is the SRE book's definition: the rate at which an
// objective consumes its error budget, normalized so burn 1.0 exhausts
// the budget exactly over the SLO period.  With budget b and a window's
// bad fraction f, burn = f / b.  An objective pages (kBurning) when the
// fast (5m) AND slow (1h) windows both exceed their thresholds — the
// fast window for responsiveness, the slow window so a short spike that
// already passed cannot page.  One window alone marks kDegraded.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace tsufail::obs {

/// How an objective turns metric samples into a bad-event fraction.
enum class SloKind : std::uint8_t {
  /// "q of observations complete within `threshold`": bad = histogram
  /// observations above `threshold` seconds; budget defaults to 1 - q.
  kLatencyQuantile,
  /// "bad/total stays within budget": bad = counter `metric`, total =
  /// counter `denominator` (e.g. cache misses over query requests).
  kErrorRatio,
  /// "counter `metric` advances at >= `threshold` per second": the bad
  /// fraction is the relative shortfall, max(0, 1 - rate/threshold).
  kThroughputMin,
  /// "gauge `metric` stays <= `threshold`": each tick with the gauge
  /// above threshold is one bad tick out of the window's total ticks.
  kStalenessMax,
};

struct SloObjective {
  std::string name;         ///< stable identifier, e.g. "serve.query.p99"
  SloKind kind = SloKind::kErrorRatio;
  std::string metric;       ///< histogram/counter/gauge name in the registry
  std::string denominator;  ///< kErrorRatio: the total-events counter
  double threshold = 0.0;   ///< seconds / rate per second / gauge ceiling
  double quantile = 0.99;   ///< kLatencyQuantile: the quantile reported
  double budget = 0.01;     ///< allowed bad fraction (error budget)
};

enum class SloState : std::uint8_t { kOk, kNoData, kDegraded, kBurning };

/// Stable lowercase-to-wire rendering: "OK", "NO_DATA", "DEGRADED",
/// "BURNING".
std::string_view slo_state_name(SloState state) noexcept;

/// One objective's evaluation at a point in time.
struct SloStatus {
  std::string objective;
  SloKind kind = SloKind::kErrorRatio;
  SloState state = SloState::kNoData;
  double fast_burn = 0.0;   ///< burn rate over the fast window
  double slow_burn = 0.0;   ///< burn rate over the slow window
  double value = 0.0;       ///< measured value (quantile / rate / ratio / gauge)
  double threshold = 0.0;   ///< the objective's target for `value`
  double budget = 0.0;
  std::string reason;       ///< human-readable one-liner
};

/// The engine.  Thread-safe: tick() runs on the owner's cadence thread
/// while evaluate()/statuses serve concurrent readers.
class SloEngine {
 public:
  /// Adds or replaces (by name) an objective.  The ring restarts for a
  /// replaced objective.
  void add_objective(SloObjective objective);
  std::size_t objective_count() const;

  /// Appends one ring entry per objective from `snapshot`, pruning
  /// entries older than the slow window.  Also advances the exemplar
  /// window, so "slowest observation per window" aligns with ticks.
  void tick(const MetricsSnapshot& snapshot, std::uint64_t now_ns);

  /// Evaluates every objective against the ring as of `now_ns`,
  /// ascending by objective name.  O(objectives).
  std::vector<SloStatus> evaluate(std::uint64_t now_ns) const;

 private:
  struct Entry {
    std::uint64_t t_ns = 0;
    double bad = 0.0;      ///< cumulative bad events (or bad ticks)
    double total = 0.0;    ///< cumulative total events (or ticks)
    double current = 0.0;  ///< instantaneous value (gauge kinds)
    std::vector<std::uint64_t> buckets;  ///< kLatencyQuantile: cumulative per-bucket
  };
  struct Tracked {
    SloObjective objective;
    std::vector<double> bounds;  ///< kLatencyQuantile: captured at first tick
    std::deque<Entry> ring;
  };

  SloStatus evaluate_one(const Tracked& tracked, std::uint64_t now_ns) const;

  mutable std::mutex mutex_;
  std::vector<Tracked> tracked_;  ///< ascending by objective name
};

/// Worst state across `statuses`; kNoData never escalates the aggregate
/// (an idle fleet is healthy, not degraded).
SloState aggregate_slo_state(std::span<const SloStatus> statuses) noexcept;

/// Line-oriented /slo rendering, one objective per line, tab-separated:
///   name<TAB>STATE<TAB>fast<TAB>slow<TAB>value<TAB>threshold<TAB>reason
/// prefixed by a "# tsufail slo v1" header.  `tsufail top` parses this.
std::string render_slo_text(std::span<const SloStatus> statuses);

/// Inverse of render_slo_text (reasons round-trip verbatim).
Result<std::vector<SloStatus>> parse_slo_text(std::string_view text);

}  // namespace tsufail::obs
