// tsufail::obs — low-overhead tracing and metrics for the analysis,
// sweep, and stream pipelines.
//
// Design contract (DESIGN.md section 12):
//
//   * One runtime kill switch.  Instrumentation is always compiled in
//     but dormant: every instrumented site costs one relaxed atomic load
//     and a predictable branch until obs::set_enabled(true).
//     bench_run_study gates the dormant cost at < 1% of a study run.
//
//   * Scoped RAII tracing.  OBS_SPAN("name") records a completed span
//     (name, start, end) into a per-thread lock-free-in-spirit ring
//     buffer (one uncontended mutex per thread, never shared on the hot
//     path).  Span names must be string literals or obs::intern()ed —
//     the buffer stores the pointer, not a copy.
//
//   * Deterministic metrics.  Counters count semantic events (cells
//     analyzed, records quarantined), not scheduling accidents, so
//     snapshots are count-exact at any worker-thread count.  Timing
//     histograms are the documented exception.
//
// obs depends only on util; every other subsystem may depend on obs.
#pragma once

#include <cstdint>

namespace tsufail::obs {

/// Runtime kill switch: one relaxed atomic load.  Off by default.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds (steady_clock).  The single clock path shared
/// by spans, benches, and the CLI — no other component reads a clock.
std::uint64_t now_ns() noexcept;

/// Wall-clock stopwatch over now_ns(); replaces the hand-rolled
/// steady_clock arithmetic the benches used to carry.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(now_ns()) {}
  void restart() noexcept { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  double seconds() const noexcept { return static_cast<double>(elapsed_ns()) * 1e-9; }

 private:
  std::uint64_t start_;
};

/// Interns a dynamic string as a process-lifetime span name.  Idempotent
/// per content; costs one lock + hash lookup, so call it outside hot
/// loops (or only when enabled()).  Literals need no interning.
const char* intern(const char* name);

/// The innermost live span's trace id on this thread (0 = no span open).
/// Exemplar-enabled histograms read this at observe() time, which is how
/// a slow observation links back to the span that produced it.
std::uint64_t current_trace_id() noexcept;

namespace detail {
/// Records one completed span into this thread's ring buffer.
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t trace_id) noexcept;
/// Allocates a fresh process-unique nonzero trace id (thread-sequenced,
/// no shared atomic on the hot path).
std::uint64_t new_trace_id() noexcept;
/// Installs `id` as this thread's current trace id, returning the old one.
std::uint64_t swap_current_trace_id(std::uint64_t id) noexcept;
}  // namespace detail

/// RAII span: captures the clock on construction when obs is enabled
/// (and `name` is non-null), records on destruction.  A null name is an
/// explicit no-op, which lets call sites skip intern() while disabled:
///   SpanScope span(obs::enabled() ? obs::intern(name) : nullptr);
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept {
    if (name != nullptr && enabled()) {
      name_ = name;
      trace_id_ = detail::new_trace_id();
      parent_id_ = detail::swap_current_trace_id(trace_id_);
      start_ = now_ns();
    }
  }
  ~SpanScope() { stop(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Ends the span before scope exit (for phases that do not map onto a
  /// C++ block).  Idempotent; the destructor becomes a no-op.
  void stop() noexcept {
    if (name_ != nullptr) {
      detail::record_span(name_, start_, now_ns(), trace_id_);
      detail::swap_current_trace_id(parent_id_);
    }
    name_ = nullptr;
  }

  /// This span's trace id (0 when the span is not recording).
  std::uint64_t trace_id() const noexcept { return trace_id_; }

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t parent_id_ = 0;
};

#define TSUFAIL_OBS_CAT2(a, b) a##b
#define TSUFAIL_OBS_CAT(a, b) TSUFAIL_OBS_CAT2(a, b)

/// Scoped trace span: OBS_SPAN("sweep.cell"); lives to the end of the
/// enclosing block.  `name` must be a string literal or intern()ed.
#define OBS_SPAN(name) \
  ::tsufail::obs::SpanScope TSUFAIL_OBS_CAT(obs_span_, __COUNTER__)(name)

}  // namespace tsufail::obs
