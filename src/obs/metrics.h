// Metrics registry: counters, gauges, and fixed-bucket histograms with
// per-thread shards merged on snapshot.
//
// Hot-path contract: every update is one relaxed enabled() load and a
// predictable branch while obs is disabled; when enabled, a counter add
// is a thread-local lookup plus one relaxed atomic add on a cell no
// other thread writes.  Shards are never unregistered, so a snapshot
// taken after worker threads exit still sees their contributions.
//
// Determinism: counters and histogram observation counts accumulate in
// integers, so any interleaving of semantic events produces the same
// totals — a sweep's counter snapshot is bit-identical at --jobs 1/2/8.
// Histogram *sums* (and timing-valued observations generally) are the
// documented floating-point exception.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "util/error.h"

namespace tsufail::obs {

namespace detail {
void counter_add(std::uint32_t id, std::uint64_t n) noexcept;
void gauge_set(std::uint32_t id, double value) noexcept;
void histogram_observe(std::uint32_t id, double value) noexcept;
}  // namespace detail

/// Monotone event counter handle.  Cheap to copy; obtain via counter().
/// The canonical call-site idiom registers once per site:
///   static obs::Counter cells = obs::counter("sweep.cells");
///   cells.add();
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) detail::counter_add(id_, n);
  }
  void increment() noexcept { add(1); }

 private:
  friend Counter counter(std::string_view name);
  explicit Counter(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

/// Registers (or finds) the counter `name`.  Names are process-lifetime;
/// registration is idempotent and may happen while obs is disabled.
Counter counter(std::string_view name);

/// Last-write-wins instantaneous value (worker count, pending queue
/// depth, current estimator value).  Unset gauges are omitted from
/// snapshots.
class Gauge {
 public:
  void set(double value) noexcept {
    if (enabled()) detail::gauge_set(id_, value);
  }

 private:
  friend Gauge gauge(std::string_view name);
  explicit Gauge(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

Gauge gauge(std::string_view name);

/// Whether a histogram captures trace exemplars (the slowest observation
/// per bucket per exemplar window, tagged with the recording span's
/// trace id).  Off by default: exemplar cells cost ~32 bytes per bucket
/// per thread and one extra relaxed load per observation.
enum class ExemplarMode : std::uint8_t { kNone, kMaxPerBucket };

/// Fixed-bucket histogram.  Bucket `i` counts observations with
/// value <= bounds[i] (Prometheus "le" semantics, first matching
/// bucket); an implicit +Inf bucket catches the rest.
class Histogram {
 public:
  void observe(double value) noexcept {
    if (enabled()) detail::histogram_observe(id_, value);
  }

 private:
  friend Histogram histogram(std::string_view name, std::span<const double> bounds,
                             ExemplarMode mode);
  explicit Histogram(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

/// Registers (or finds) the histogram `name`.  `bounds` must be strictly
/// increasing and non-empty; a re-registration keeps the first bounds
/// and ExemplarMode (the name identifies the metric, not the call site).
Histogram histogram(std::string_view name, std::span<const double> bounds,
                    ExemplarMode mode = ExemplarMode::kNone);

/// The current exemplar window generation.  Exemplar cells remember the
/// window they were captured in; a stale cell is overwritten by the next
/// observation regardless of value, so "slowest" always means "slowest
/// since the window last advanced".
std::uint64_t exemplar_window() noexcept;

/// Advances the exemplar window (the SLO tick calls this once per
/// evaluation period).  Returns the new generation.
std::uint64_t advance_exemplar_window() noexcept;

/// Shared log-spaced duration buckets (seconds): 1us .. 100s.
std::span<const double> time_buckets_seconds() noexcept;

// --- snapshots --------------------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
};

struct HistogramValue {
  /// The slowest observation captured for one bucket in one exemplar
  /// window.  `trace_id` is 0 when the observation happened outside any
  /// span; otherwise it matches a span in the Chrome trace export.
  struct Exemplar {
    std::size_t bucket = 0;      ///< index into counts (bounds.size() = +Inf)
    double value = 0.0;
    std::uint64_t trace_id = 0;
    std::uint64_t window = 0;    ///< exemplar_window() generation at capture
  };

  std::string name;
  std::vector<double> bounds;        ///< upper bounds, ascending
  std::vector<std::uint64_t> counts; ///< per-bucket, size bounds.size() + 1 (+Inf last)
  std::uint64_t count = 0;           ///< total observations
  double sum = 0.0;                  ///< FP merge order is unspecified
  std::vector<Exemplar> exemplars;   ///< at most one per bucket, ascending by bucket

  /// Cumulative count through bucket `i` (Prometheus exposition shape).
  std::uint64_t cumulative(std::size_t i) const noexcept;
  const Exemplar* find_exemplar(std::size_t bucket) const noexcept;
};

/// Quantile estimate from a fixed-bucket histogram, linearly
/// interpolated inside the owning bucket (the Prometheus
/// histogram_quantile model).  `q` is clamped to [0, 1]; observations in
/// the +Inf bucket report the highest finite bound.  0 when empty.
double histogram_quantile(const HistogramValue& histogram, double q);

/// Immutable merged view of every shard, each section ascending by name.
/// Metrics that were registered but never updated report zero/empty;
/// unset gauges are omitted.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* find_counter(std::string_view name) const noexcept;
  const GaugeValue* find_gauge(std::string_view name) const noexcept;
  const HistogramValue* find_histogram(std::string_view name) const noexcept;
};

/// Merges every thread's shard (live and exited) into a snapshot.
MetricsSnapshot collect_metrics();

/// Zeroes every counter/histogram cell and clears every gauge.  Handles
/// stay registered and valid.
void reset_metrics();

/// JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// with full round-trip precision on doubles.
std::string metrics_json(const MetricsSnapshot& snapshot);

/// Prometheus text exposition (version 0.0.4): HELP/TYPE headers,
/// cumulative `_bucket{le="..."}` series, `_sum`/`_count`.  Metric names
/// are sanitized ('.' and '-' map to '_').  Histogram buckets with a
/// captured exemplar carry an OpenMetrics-style annotation:
///   name_bucket{le="0.1"} 42 # {trace_id="00000100000002a7"} 0.0871
std::string prometheus_text(const MetricsSnapshot& snapshot);

/// Structural validation of a Prometheus text exposition: every sample
/// line parses, every series was declared by a preceding TYPE line,
/// counter, `_bucket` and `_count` values lie in [0, 2^64) (NaN and
/// infinities rejected), histogram bucket series are cumulative, and
/// exemplar annotations only appear on bucket series with hex trace ids
/// and parseable values.  Used by tests and the `obs_check` CI tool.
struct PrometheusCheck {
  std::size_t samples = 0;
  std::size_t families = 0;
  std::size_t exemplars = 0;
  /// Distinct trace_id label values across all exemplars, sorted.
  std::vector<std::string> exemplar_trace_ids;
};
Result<PrometheusCheck> check_prometheus_text(std::string_view text);

/// Parses a tsufail-generated Prometheus exposition back into a
/// MetricsSnapshot (the inverse of prometheus_text, modulo name
/// sanitization: names come back with '_' where '.' was).  Exemplar
/// annotations are reconstructed with window 0.  `tsufail top` uses this
/// to recompute quantiles client-side from a scraped /metrics page.
Result<MetricsSnapshot> parse_prometheus_text(std::string_view text);

}  // namespace tsufail::obs
