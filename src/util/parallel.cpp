#include "util/parallel.h"

#include <algorithm>
#include <thread>

namespace tsufail {

std::size_t worker_count(std::size_t count, std::size_t jobs) noexcept {
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  return std::min(jobs, count);
}

namespace detail {

void run_workers(std::size_t workers, const std::function<void()>& worker) {
  if (workers == 0) return;
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    while (threads.size() + 1 < workers) threads.emplace_back(worker);
  } catch (...) {
    // A thread that cannot start leaves its share of the cursor to the
    // workers already running; they still all join below.
  }
  worker();
  for (auto& thread : threads) thread.join();
}

}  // namespace detail
}  // namespace tsufail
