// parallel_for, the library's one worker pool: every index runs exactly
// once, each worker owns its state, no more workers start than there are
// items (and the caller is one of them), and a task that throws becomes
// that index's kInternal error while every other index still runs.  Each
// property is checked over the same grid of item counts and jobs values.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace tsufail {
namespace {

constexpr std::size_t kCounts[] = {0, 1, 7, 64};
constexpr std::size_t kJobs[] = {1, 2, 8, 0};

std::string grid_point(std::size_t count, std::size_t jobs) {
  return "count=" + std::to_string(count) + " jobs=" + std::to_string(jobs);
}

/// make_state for tasks that need no per-worker state.
int no_state() { return 0; }

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t count : kCounts) {
    for (const std::size_t jobs : kJobs) {
      SCOPED_TRACE(grid_point(count, jobs));
      std::vector<std::atomic<int>> runs(count);
      const auto errors =
          parallel_for(count, jobs, no_state, [&runs](int, std::size_t i) -> Result<void> {
            runs[i].fetch_add(1);
            return {};
          });
      ASSERT_EQ(errors.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
        EXPECT_FALSE(errors[i].has_value()) << "index " << i;
      }
    }
  }
}

TEST(ParallelFor, WorkersNeverShareState) {
  // A state records the thread that made it; every index records the
  // state it got and the thread it ran on.
  struct State {
    std::size_t id;
    std::thread::id maker;
  };
  for (const std::size_t count : kCounts) {
    for (const std::size_t jobs : kJobs) {
      SCOPED_TRACE(grid_point(count, jobs));
      std::atomic<std::size_t> made{0};
      std::vector<std::size_t> state_of(count);
      std::vector<std::thread::id> maker_of(count), ran_on(count);
      parallel_for(
          count, jobs, [&made] { return State{made.fetch_add(1), std::this_thread::get_id()}; },
          [&](State& state, std::size_t i) -> Result<void> {
            state_of[i] = state.id;
            maker_of[i] = state.maker;
            ran_on[i] = std::this_thread::get_id();
            return {};
          });
      // Each state is used only on the thread that made it, and no two
      // states share a thread.
      std::map<std::size_t, std::thread::id> thread_of_state;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(ran_on[i], maker_of[i]) << "index " << i;
        const auto [it, inserted] = thread_of_state.emplace(state_of[i], ran_on[i]);
        EXPECT_EQ(it->second, ran_on[i]) << "index " << i;
      }
      std::set<std::thread::id> threads;
      for (const auto& [state, thread] : thread_of_state) threads.insert(thread);
      EXPECT_EQ(threads.size(), thread_of_state.size());
    }
  }
}

TEST(ParallelFor, StartsNoMoreWorkersThanItems) {
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t count : kCounts) {
    for (const std::size_t jobs : kJobs) {
      SCOPED_TRACE(grid_point(count, jobs));
      const std::size_t expected = std::min(count, jobs == 0 ? hardware : jobs);
      EXPECT_EQ(worker_count(count, jobs), expected);

      // One state per worker, and the calling thread is always a worker.
      std::mutex mutex;
      std::vector<std::thread::id> makers;
      parallel_for(
          count, jobs,
          [&] {
            const std::lock_guard lock(mutex);
            makers.push_back(std::this_thread::get_id());
            return 0;
          },
          [](int, std::size_t) -> Result<void> { return {}; });
      EXPECT_EQ(makers.size(), expected);
      EXPECT_LE(makers.size(), count);
      if (count > 0) {
        EXPECT_NE(std::find(makers.begin(), makers.end(), std::this_thread::get_id()),
                  makers.end());
      }
    }
  }
}

TEST(ParallelFor, ThrownExceptionsBecomeInternalErrors) {
  for (const std::size_t count : kCounts) {
    for (const std::size_t jobs : kJobs) {
      SCOPED_TRACE(grid_point(count, jobs));
      std::vector<std::atomic<int>> runs(count);
      const auto errors =
          parallel_for(count, jobs, no_state, [&runs](int, std::size_t i) -> Result<void> {
            runs[i].fetch_add(1);
            if (i == 1) throw std::runtime_error("boom");
            if (i == 3) throw 42;
            if (i == 5) return Error(ErrorKind::kDomain, "undefined here");
            return {};
          });
      ASSERT_EQ(errors.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
        if (i == 1) {
          ASSERT_TRUE(errors[i].has_value());
          EXPECT_EQ(errors[i]->kind(), ErrorKind::kInternal);
          EXPECT_EQ(errors[i]->message(), "task threw: boom");
        } else if (i == 3) {
          ASSERT_TRUE(errors[i].has_value());
          EXPECT_EQ(errors[i]->kind(), ErrorKind::kInternal);
          EXPECT_EQ(errors[i]->message(), "task threw a non-exception");
        } else if (i == 5) {
          ASSERT_TRUE(errors[i].has_value());
          EXPECT_EQ(errors[i]->to_string(), "domain: undefined here");
        } else {
          EXPECT_FALSE(errors[i].has_value()) << "index " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tsufail
