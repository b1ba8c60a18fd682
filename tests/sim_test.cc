// Unit tests for the discrete-event simulation kernel.

#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/callback.h"
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
// pops interleave while the queue grows to a few thousand events and
// drains again, with many same-tick ties; each round ends by clearing a
// non-empty queue, and the next round reuses it. Every pop must return the
// reference's earliest (time, seq) and run the callback pushed with that
// seq, so a freed slot that hands back a stale callback, or a bucket or
// sift that breaks (time, seq) order, fails here. Delays in [0, 8) stay
// inside the ring; delays in [0, 4096) also enter the heap past it, migrate
// as the floor advances (or jumps, when the ring runs dry) and tie with
// later direct pushes to the same tick, and each round's Clear drops heap
// events.
void CheckAgainstSortedReference(SimTime delay_range) {
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
        const SimTime time =
            now + static_cast<SimTime>(rng() % static_cast<uint64_t>(
                                                   delay_range));
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
    if (delay_range > EventQueue::kSpan) {
      // The queue being cleared holds events past the ring.
      ASSERT_GE(reference.rbegin()->first, now + EventQueue::kSpan);
    }
    queue.Clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    now = 0;  // a cleared queue accepts any time again
  }
  EXPECT_GE(max_size, 2000u);
}

TEST(EventQueueTest, MatchesSortedReferenceUnderInterleaving) {
  for (const SimTime delay_range : {SimTime{8}, SimTime{4096}}) {
    SCOPED_TRACE(testing::Message() << "delays in [0, " << delay_range << ")");
    ASSERT_NO_FATAL_FAILURE(CheckAgainstSortedReference(delay_range));
  }
}

// Counts constructions and destructions of a capture, and destructions of
// the live (not moved-from) value, to check that a Callback destroys each
// capture exactly once however it is moved.
struct LifetimeCounts {
  int constructed = 0;
  int destroyed = 0;
  int live_destroyed = 0;
};

class Tracked {
 public:
  explicit Tracked(LifetimeCounts* counts) : counts_(counts) {
    ++counts_->constructed;
  }
  Tracked(Tracked&& other) noexcept
      : counts_(other.counts_), live_(std::exchange(other.live_, false)) {
    ++counts_->constructed;
  }
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    ++counts_->destroyed;
    if (live_) ++counts_->live_destroyed;
  }
  void operator()() const { ++calls_; }
  int calls() const { return calls_; }

 private:
  LifetimeCounts* counts_;
  bool live_ = true;
  mutable int calls_ = 0;
};

TEST(CallbackTest, MoveConstructDestroysCaptureOnce) {
  LifetimeCounts counts;
  {
    Callback a(Tracked{&counts});
    Callback b(std::move(a));
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(counts.live_destroyed, 0);
  }
  EXPECT_EQ(counts.live_destroyed, 1);
  EXPECT_EQ(counts.destroyed, counts.constructed);
}

TEST(CallbackTest, MoveAssignDestroysTheOverwrittenCapture) {
  LifetimeCounts first;
  LifetimeCounts second;
  {
    Callback a(Tracked{&first});
    Callback b(Tracked{&second});
    b = std::move(a);
    EXPECT_EQ(second.live_destroyed, 1);
    EXPECT_EQ(first.live_destroyed, 0);
    EXPECT_FALSE(a);
    b = std::move(b);  // self-assignment keeps the capture
    ASSERT_TRUE(b);
    a = std::move(b);
    EXPECT_EQ(first.live_destroyed, 0);
  }
  EXPECT_EQ(first.live_destroyed, 1);
  EXPECT_EQ(second.live_destroyed, 1);
  EXPECT_EQ(first.destroyed, first.constructed);
  EXPECT_EQ(second.destroyed, second.constructed);
}

TEST(CallbackTest, PopHandsOverAndClearDestroysEachCaptureOnce) {
  LifetimeCounts popped;
  LifetimeCounts cleared;
  LifetimeCounts dropped;
  {
    EventQueue queue;
    uint64_t seq = 0;
    queue.Push(3, seq++, Tracked{&popped});
    for (SimTime time : {SimTime{5}, SimTime{5}, SimTime{9000}}) {
      queue.Push(time, seq++, Tracked{&cleared});
    }
    {
      Event event = queue.Pop();
      EXPECT_EQ(event.time, 3);
      EXPECT_EQ(popped.live_destroyed, 0);
      event.action();
    }
    EXPECT_EQ(popped.live_destroyed, 1);
    queue.Clear();
    EXPECT_EQ(cleared.live_destroyed, 3);
    // The queue's destructor drops what is still pending.
    queue.Push(7, seq++, Tracked{&dropped});
    queue.Push(20'000, seq++, Tracked{&dropped});
  }
  EXPECT_EQ(dropped.live_destroyed, 2);
  for (const LifetimeCounts* counts : {&popped, &cleared, &dropped}) {
    EXPECT_EQ(counts->destroyed, counts->constructed);
  }
}

TEST(CallbackTest, MoveOnlyAndVectorCapturesSurviveTheQueue) {
  int got = 0;
  int sum = 0;
  std::array<int64_t, 7> wide{};  // with the reference: a full 64 bytes
  wide.fill(3);
  int64_t wide_sum = 0;
  Callback unique = [p = std::make_unique<int>(41), &got] { got = *p + 1; };
  Callback vec = [v = std::vector<int>{1, 2, 3, 4}, &sum] {
    sum = std::accumulate(v.begin(), v.end(), 0);
  };
  Callback full = [wide, &wide_sum] {
    wide_sum = std::accumulate(wide.begin(), wide.end(), int64_t{0});
  };
  static_assert(sizeof(wide) + sizeof(&wide_sum) == Callback::kCapacity);
  Callback moved_unique(std::move(unique));
  Callback moved_vec;
  moved_vec = std::move(vec);
  EventQueue queue;
  queue.Push(1, 0, std::move(moved_unique));
  queue.Push(2000, 1, std::move(moved_vec));  // past the ring: migrates
  queue.Push(2000, 2, std::move(full));
  while (!queue.empty()) queue.Pop().action();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(sum, 10);
  EXPECT_EQ(wide_sum, 21);
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

// The (time, seq) pair is the determinism tiebreak, and a tick's bucket
// pops in push order: a duplicate or falling seq would reorder same-tick
// events, and a time below the last pop has no bucket. Both abort in every
// build.
TEST(EventQueueDeathTest, DuplicateOrFallingSeqAborts) {
  EventQueue queue;
  queue.Push(1, 7, [] {});
  EXPECT_DEATH(queue.Push(2, 7, [] {}), "duplicate event seq");
  EXPECT_DEATH(queue.Push(2, 3, [] {}), "duplicate event seq");
}

TEST(EventQueueDeathTest, PushBeforeLastPopAborts) {
  EventQueue queue;
  queue.Push(10, 0, [] {});
  queue.Push(12, 1, [] {});
  queue.Pop();
  EXPECT_DEATH(queue.Push(9, 2, [] {}), "before the last pop");
}

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
