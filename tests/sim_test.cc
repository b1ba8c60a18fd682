// Unit tests for the discrete-event simulation kernel.

#include "sim/simulator.h"

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"

namespace gtpl::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(30, 0, [&order] { order.push_back(30); });
  queue.Push(10, 1, [&order] { order.push_back(10); });
  queue.Push(20, 2, [&order] { order.push_back(20); });
  while (!queue.empty()) queue.Pop().action();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(EventQueueTest, SameTickFifoBySequence) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Push(5, static_cast<uint64_t>(i), [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.Pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PeekTimeMatchesEarliest) {
  EventQueue queue;
  queue.Push(42, 0, [] {});
  queue.Push(7, 1, [] {});
  EXPECT_EQ(queue.PeekTime(), 7);
}

TEST(EventQueueTest, SizeAndClear) {
  EventQueue queue;
  queue.Push(1, 0, [] {});
  queue.Push(2, 1, [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.Clear();
  EXPECT_TRUE(queue.empty());
}

// Differential test against a sorted reference. Seeded random pushes and
// pops interleave while the heap grows to a few thousand events and
// drains again, with many same-tick ties; each round ends by clearing a
// non-empty queue, and the next round reuses it. Every pop must return the
// reference's earliest (time, seq) and run the callback pushed with that
// seq, so a freed slot that hands back a stale callback, or a sift that
// breaks (time, seq) order, fails here.
TEST(EventQueueTest, MatchesSortedReferenceUnderInterleaving) {
  std::mt19937_64 rng(20240917);
  EventQueue queue;
  uint64_t next_seq = 0;  // unique across the queue's lifetime
  SimTime now = 0;
  uint64_t fired = 0;
  size_t max_size = 0;
  for (int round = 0; round < 3; ++round) {
    std::multiset<std::pair<SimTime, uint64_t>> reference;
    for (int op = 0; op < 40'000; ++op) {
      // Alternate 8000-op phases that mostly push and mostly pop.
      const uint64_t push_pct = (op / 8000) % 2 == 0 ? 70 : 30;
      if (reference.empty() || rng() % 100 < push_pct) {
        const SimTime time = now + static_cast<SimTime>(rng() % 8);
        const uint64_t seq = next_seq++;
        queue.Push(time, seq, [&fired, seq] { fired = seq; });
        reference.emplace(time, seq);
      } else {
        ASSERT_EQ(queue.PeekTime(), reference.begin()->first);
        Event event = queue.Pop();
        const auto [want_time, want_seq] = *reference.begin();
        reference.erase(reference.begin());
        ASSERT_EQ(event.time, want_time) << "round " << round << " op " << op;
        ASSERT_EQ(event.seq, want_seq) << "round " << round << " op " << op;
        event.action();
        ASSERT_EQ(fired, want_seq) << "callback of another event";
        now = event.time;
      }
      ASSERT_EQ(queue.size(), reference.size());
      max_size = std::max(max_size, queue.size());
    }
    ASSERT_FALSE(queue.empty());
    queue.Clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
  }
  EXPECT_GE(max_size, 2000u);
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.Schedule(5, [&] { seen.push_back(sim.Now()); });
  sim.Schedule(2, [&] { seen.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<SimTime>{2, 5}));
  EXPECT_EQ(sim.Now(), 5);
}

TEST(SimulatorTest, NestedSchedulingUsesEventTimeAsBase) {
  Simulator sim;
  SimTime inner_fired = -1;
  sim.Schedule(10, [&] {
    sim.Schedule(7, [&] { inner_fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fired, 17);
}

TEST(SimulatorTest, ZeroDelayRunsAfterPendingSameTick) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1, [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(3); });
  });
  sim.Schedule(1, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(5, [&] { ++fired; });
  sim.Schedule(15, [&] { ++fired; });
  sim.Run(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventExactlyAtHorizonRuns) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Run(10);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StopHaltsExecution) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

// Regression (PR 9 bugfix sweep): Step() used to ignore `until`, skip the
// time-monotonicity check, and clear a pending stop — diverging from Run()'s
// contract. These pin the repaired semantics.
TEST(SimulatorTest, StepRespectsUntilHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(5, [&] { ++fired; });
  EXPECT_FALSE(sim.Step(3));  // earliest event past the horizon
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Step(5));  // event stamped exactly `until` still runs
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 5);
}

TEST(SimulatorTest, StepStopSticksUntilNextRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  // The stop persists across Step() calls: nothing runs, nothing advances.
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 1);
  // Run() resets the flag and drains the remaining event.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepAdvancesClockMonotonically) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.Schedule(4, [&] { seen.push_back(sim.Now()); });
  sim.Schedule(2, [&] { seen.push_back(sim.Now()); });
  sim.Schedule(4, [&] { seen.push_back(sim.Now()); });
  while (sim.Step()) {
  }
  EXPECT_EQ(seen, (std::vector<SimTime>{2, 4, 4}));
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.Now(), 4);
}

#ifndef NDEBUG
// The (time, seq) pair is the determinism tiebreak; a duplicate seq makes
// same-tick order depend on heap internals. Debug builds abort on it.
TEST(EventQueueDeathTest, DuplicateSeqAbortsInDebugBuilds) {
  EventQueue queue;
  queue.Push(1, 7, [] {});
  EXPECT_DEATH(queue.Push(2, 7, [] {}), "duplicate event seq");
}
#endif

TEST(SimulatorTest, EmptyRunAdvancesToHorizon) {
  Simulator sim;
  sim.Run(100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

}  // namespace
}  // namespace gtpl::sim
