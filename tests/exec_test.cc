// Unit tests for the exec subsystem: the fork-join thread pool and the
// job-count resolution.

#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gtpl::exec {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.Run(1000, [&hits](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Fork-join: Run returns only once every call has returned, including the
// calls still running on workers when the caller finds no index left.
TEST(ThreadPoolTest, RunReturnsAfterEveryCall) {
  ThreadPool pool(4);
  std::atomic<int> returned{0};
  pool.Run(4, [&returned](int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    returned++;
  });
  EXPECT_EQ(returned.load(), 4);
}

TEST(ThreadPoolTest, ZeroThreadsRunInlineInIndexOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> order;
  pool.Run(5, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EmptyRunIsANoop) {
  ThreadPool pool(2);
  pool.Run(0, [](int64_t) { FAIL() << "must not run"; });
}

// Many short runs on one pool reuse the same workers, including runs with
// fewer indices than threads; plain (non-atomic) slots check that Run
// orders every call ahead of its return and ahead of the next run.
TEST(ThreadPoolTest, ReusesWorkersAcrossRuns) {
  ThreadPool pool(4);
  std::vector<int64_t> slots(6, 0);
  int64_t expected = 0;
  for (int round = 0; round < 2000; ++round) {
    const int64_t n = round % 7;
    pool.Run(n, [&slots](int64_t i) { slots[static_cast<size_t>(i)] += i + 1; });
    expected += n * (n + 1) / 2;
    int64_t total = 0;
    for (int64_t slot : slots) total += slot;
    ASSERT_EQ(total, expected) << "round " << round;
  }
}

TEST(ResolveJobsTest, ExplicitValueWins) {
  EXPECT_EQ(ResolveJobs(3), 3);
  EXPECT_EQ(ResolveJobs(1), 1);
}

TEST(ResolveJobsTest, EnvironmentFallback) {
  ASSERT_EQ(setenv("GTPL_JOBS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveJobs(0), 5);
  ASSERT_EQ(setenv("GTPL_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(ResolveJobs(0), 1);  // malformed env falls back to hardware
  ASSERT_EQ(unsetenv("GTPL_JOBS"), 0);
  EXPECT_GE(ResolveJobs(0), 1);
}

}  // namespace
}  // namespace gtpl::exec
