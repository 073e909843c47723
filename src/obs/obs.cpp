#include "obs/obs.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <unordered_set>

namespace tsufail::obs {

namespace {
// The runtime kill switch.  Relaxed is enough: enabling observability is
// advisory (a span straddling the flip may or may not be recorded), and
// all real synchronization happens on the buffer/registry mutexes.
std::atomic<bool> g_enabled{false};
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* intern(const char* name) {
  static std::mutex mutex;
  // Node-based set: element addresses survive rehashing, so the returned
  // pointer is stable for the life of the process.
  static std::unordered_set<std::string> names;
  std::lock_guard lock(mutex);
  return names.emplace(name).first->c_str();
}

namespace {
// Trace ids are (thread slot << 40) | per-thread sequence: process-unique
// and nonzero without a shared atomic per span.  The global counter is
// touched once per thread lifetime.
std::atomic<std::uint64_t> g_trace_thread_seq{0};
thread_local std::uint64_t t_trace_id_base = 0;
thread_local std::uint64_t t_trace_id_seq = 0;
thread_local std::uint64_t t_current_trace_id = 0;
}  // namespace

std::uint64_t current_trace_id() noexcept { return t_current_trace_id; }

namespace detail {

std::uint64_t new_trace_id() noexcept {
  if (t_trace_id_base == 0)
    t_trace_id_base = (g_trace_thread_seq.fetch_add(1, std::memory_order_relaxed) + 1) << 40;
  return t_trace_id_base | (++t_trace_id_seq & ((std::uint64_t{1} << 40) - 1));
}

std::uint64_t swap_current_trace_id(std::uint64_t id) noexcept {
  const std::uint64_t previous = t_current_trace_id;
  t_current_trace_id = id;
  return previous;
}

}  // namespace detail

}  // namespace tsufail::obs
