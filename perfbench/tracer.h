// Benchmark-side spans: each public call the traced run makes into a
// tsufail layer is wrapped in one span (name, start, end, parent).  Spans
// stay in memory and are written once, at the end, as one TSV file that
// run.py turns into the per-layer metrics.  The program's own obs spans
// are never read.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  using NameId = std::uint32_t;
  using SpanId = std::uint64_t;
  static constexpr SpanId kNoParent = 0;

  struct Span {
    SpanId id = 0;
    SpanId parent = kNoParent;
    NameId name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// One open span; records itself when it ends (explicitly or at scope
  /// exit).  Spans opened on one thread nest under that thread's innermost
  /// open span unless a parent is given.
  class Scope {
   public:
    Scope(Tracer& tracer, NameId name, SpanId parent);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    SpanId id() const noexcept { return span_.id; }
    /// Renames the span before it ends (e.g. a query split by cache hit).
    void rename(NameId name) noexcept { span_.name = name; }
    void end();

   private:
    Tracer* tracer_;
    Span span_;
    bool open_ = true;
  };

  NameId intern(std::string_view name);
  Scope span(NameId name, SpanId parent = kNoParent) { return Scope(*this, name, parent); }
  Scope span(std::string_view name, SpanId parent = kNoParent) {
    return Scope(*this, intern(name), parent);
  }

  /// Writes `trace_id` and every recorded span, one per line:
  /// id, parent, name, start_ns, end_ns (tab-separated).
  bool write(const std::string& path, const std::string& trace_id) const;

 private:
  void record(const Span& span);

  std::atomic<SpanId> next_id_{1};
  std::mutex mutex_;  ///< guards the members below (sweep stages record from workers)
  std::vector<std::string> names_;
  std::map<std::string, NameId, std::less<>> ids_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
