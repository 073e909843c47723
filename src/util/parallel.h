// parallel_for: the library's one worker pool.
//
// The study's analyses and the Monte Carlo sweep's cells are independent
// tasks over shared read-only input, each writing only its own result
// slot.  parallel_for runs such a set and owns the threading rule its
// callers share:
//
//   * jobs == 0 means one worker per hardware thread, otherwise `jobs`;
//   * never more workers than items;
//   * the calling thread is always one of the workers, so one worker runs
//     inline and starts no thread.
//
// Workers claim indices in ascending order off one cursor, and the
// calling thread always runs index 0: a caller that orders its items
// longest first runs the longest one itself instead of waiting on the
// worker that claimed it.  Results come back indexed by item, so callers
// assemble them in a fixed order whatever the scheduling, and no
// exception ever leaves a worker thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"

namespace tsufail {

/// Workers parallel_for uses for `count` items at `jobs` (see above).
std::size_t worker_count(std::size_t count, std::size_t jobs) noexcept;

namespace detail {
/// Runs `worker` on `workers` workers — the calling thread plus
/// workers - 1 started threads — and joins them all before returning.
/// When a thread cannot be started, the workers already running finish
/// the work.
void run_workers(std::size_t workers, const std::function<void()>& worker);
}  // namespace detail

/// Runs body(state, i) -> Result<void> once for every i in [0, count) on
/// worker_count(count, jobs) workers.  Each worker calls make_state()
/// (which must not throw) once, on its own thread, and passes that state
/// to its tasks only.  Returns one slot per index: empty when the task
/// succeeded, else its error, with anything it threw downgraded to
/// ErrorKind::kInternal.
template <typename MakeState, typename Body>
std::vector<std::optional<Error>> parallel_for(std::size_t count, std::size_t jobs,
                                               const MakeState& make_state, const Body& body) {
  std::vector<std::optional<Error>> errors(count);
  std::atomic<std::size_t> next{1};  // index 0 is the calling thread's
  const std::thread::id caller = std::this_thread::get_id();
  detail::run_workers(worker_count(count, jobs), [&] {
    auto state = make_state();
    for (std::size_t i = std::this_thread::get_id() == caller ? 0 : next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      try {
        if (Result<void> result = body(state, i); !result.ok()) errors[i] = result.error();
      } catch (const std::exception& e) {
        errors[i] = Error(ErrorKind::kInternal, std::string("task threw: ") + e.what());
      } catch (...) {
        errors[i] = Error(ErrorKind::kInternal, "task threw a non-exception");
      }
    }
  });
  return errors;
}

}  // namespace tsufail
