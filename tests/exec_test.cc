// Unit tests for the exec subsystem: thread pool lifecycle and guarantees,
// parallel loop helpers, and the deterministic sweep runner.

#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel.h"
#include "exec/sweep.h"

namespace gtpl::exec {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, RunsEveryTaskToCompletionOnDestruction) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Post([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1);
      });
    }
    // Destructor must drain all 64, not just the in-flight ones.
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> failing =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  std::future<int> healthy = pool.Submit([] { return 3; });
  EXPECT_THROW(failing.get(), std::runtime_error);
  // A throwing task must not poison the pool.
  EXPECT_EQ(healthy.get(), 3);
}

TEST(ThreadPoolTest, TaskMayEnqueueFurtherTasksWithoutDeadlock) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Post([&pool, &completed] {
        pool.Post([&pool, &completed] {
          pool.Post([&completed] { completed.fetch_add(1); });
          completed.fetch_add(1);
        });
        completed.fetch_add(1);
      });
    }
    // Chained enqueues during the destructor drain must all run.
  }
  EXPECT_EQ(completed.load(), 24);
}

// A task is counted before its future becomes ready, so the count is exact
// as soon as every future is. Repeated on one busy pool: a count taken after
// the future fires loses this race within a few rounds.
TEST(ThreadPoolTest, CountsExecutedTasks) {
  ThreadPool pool(2);
  for (int round = 0; round < 1000; ++round) {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 10; ++i) {
      futures.push_back(pool.Submit([] {}));
    }
    for (std::future<void>& f : futures) f.get();
    ASSERT_EQ(pool.tasks_executed(), 10 * (round + 1)) << "round " << round;
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

TEST(ParallelForTest, CoversExactlyTheRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(pool, 10, 90,
              [&hits](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i >= 10 && i < 90 ? 1 : 0)
        << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  ParallelFor(pool, 5, 5, [](int64_t) { FAIL() << "must not run"; });
}

TEST(ParallelForTest, RethrowsLowestIndexedFailureAfterCompletingRange) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    ParallelFor(
        pool, 0, 50,
        [&ran](int64_t i) {
          ran.fetch_add(1);
          if (i == 13 || i == 37) {
            throw std::out_of_range(std::to_string(i));
          }
        },
        /*chunk=*/1);
    FAIL() << "expected an exception";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "13");  // deterministic: lowest index wins
  }
  EXPECT_EQ(ran.load(), 50);  // the range still ran to completion
}

TEST(ParallelMapTest, PreservesInputOrder) {
  ThreadPool pool(4);
  std::vector<int> items;
  for (int i = 0; i < 200; ++i) items.push_back(i);
  const std::vector<int> doubled =
      ParallelMap(pool, items, [](int x) { return 2 * x; });
  ASSERT_EQ(doubled.size(), items.size());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(doubled[static_cast<size_t>(i)], 2 * i);
  }
}

TEST(SweepRunnerTest, DeliversCellsInPointRepOrder) {
  SweepRunner<int> runner(/*jobs=*/3);
  EXPECT_EQ(runner.jobs(), 3);
  const std::vector<std::vector<int>> grid = runner.Run(
      4, 5, [](size_t point, int32_t rep) {
        return static_cast<int>(point) * 100 + rep;
      });
  ASSERT_EQ(grid.size(), 4u);
  for (size_t point = 0; point < 4; ++point) {
    ASSERT_EQ(grid[point].size(), 5u);
    for (int32_t rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(grid[point][static_cast<size_t>(rep)],
                static_cast<int>(point) * 100 + rep);
    }
  }
  EXPECT_GE(runner.elapsed_seconds(), 0.0);
}

TEST(SweepRunnerTest, SerialAndParallelGridsMatch) {
  auto cell = [](size_t point, int32_t rep) {
    // A little arithmetic so cells are distinguishable and cheap.
    return static_cast<double>(point + 1) / (rep + 2);
  };
  SweepRunner<double> serial(1);
  SweepRunner<double> parallel_runner(4);
  EXPECT_EQ(serial.Run(6, 3, cell), parallel_runner.Run(6, 3, cell));
}

}  // namespace
}  // namespace gtpl::exec
