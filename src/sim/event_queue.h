#ifndef GTPL_SIM_EVENT_QUEUE_H_
#define GTPL_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"

namespace gtpl::sim {

/// A scheduled callback. Events compare by (time, sequence number), so two
/// events scheduled for the same tick fire in scheduling order — this is what
/// makes runs bit-for-bit deterministic.
struct Event {
  SimTime time = 0;
  uint64_t seq = 0;
  Callback action;
};

/// Event calendar ordered by (time, seq): a ring of per-tick FIFO buckets
/// for the near future, and a binary min-heap for the rest.
///
/// The ring covers the kSpan ticks [floor, floor + kSpan), where `floor` is
/// the time of the last pop. Each bucket is a FIFO list threaded through the
/// slot array that holds the callbacks, and an occupancy bitmap finds the
/// next non-empty tick, so a push or pop inside the span costs O(1). Seqs
/// rise with push order (checked), so a per-tick FIFO pops in (time, seq)
/// order.
///
/// An event at or past floor + kSpan waits in the heap as a compact
/// {time, seq, slot} key. When the floor advances, every heap event the
/// span now covers moves into the ring in (time, seq) order, before any
/// direct push can reach its tick; so every heap event lies past the ring,
/// and the heap's migrants precede a tick's later direct pushes, exactly as
/// their seqs do. Freed slots are reused through a free list, so a queue in
/// steady state allocates nothing.
class EventQueue {
 public:
  /// Ticks the ring covers. A constant: every delay of the paper's sweeps
  /// (latency up to 750, think and idle times up to 10) lies inside it.
  static constexpr SimTime kSpan = 1024;

  EventQueue() { tails_.fill(kNil); }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event. `seq` must exceed every seq pushed before in this
  /// queue's lifetime: it is the same-tick tiebreak, and every scheduler
  /// hands out seqs from a counter. `time` must be at least the time of the
  /// last pop. Either violation aborts.
  void Push(SimTime time, uint64_t seq, Callback&& action);

  /// Removes and returns the earliest event. Precondition: !empty().
  Event Pop();

  /// Time of the earliest event. Precondition: !empty().
  SimTime PeekTime() const;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  void Clear();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr size_t kWords = static_cast<size_t>(kSpan) / 64;
  static_assert(kSpan % 64 == 0 && kWords <= 64,
                "one summary word indexes the occupancy bitmap");

  struct Key {
    SimTime time = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;  // index into slots_
  };

  /// One event's callback and seq; `next` links its bucket (or the free
  /// list once the slot is free).
  struct Slot {
    Callback action;
    uint64_t seq = 0;
    uint32_t next = kNil;
  };

  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static size_t BucketOf(SimTime time) {
    return static_cast<size_t>(time) & static_cast<size_t>(kSpan - 1);
  }

  /// The tick in [floor_, floor_ + kSpan) whose bucket is `bucket`.
  SimTime TickOf(size_t bucket) const {
    return floor_ + static_cast<SimTime>((bucket - BucketOf(floor_)) &
                                         static_cast<size_t>(kSpan - 1));
  }

  uint32_t AllocSlot(uint64_t seq, Callback&& action);
  /// Moves the slot's callback out into an event at `time` and frees it.
  Event Take(SimTime time, uint32_t slot);
  void Append(size_t bucket, uint32_t slot);
  /// First non-empty bucket at or after the floor's, circularly.
  /// Precondition: ring_size_ > 0.
  size_t NextBucket() const;
  void HeapPush(const Key& key);
  Key HeapPop();
  /// Moves every heap event below floor_ + kSpan into the ring.
  void Migrate();

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
  /// Each bucket is a circular list named by its tail (kNil: empty); the
  /// tail's `next` is the head, so one index per tick gives FIFO order.
  std::array<uint32_t, static_cast<size_t>(kSpan)> tails_;
  std::array<uint64_t, kWords> occupied_{};  // bit per non-empty bucket
  uint64_t occupied_words_ = 0;              // bit per non-zero word
  std::vector<Key> heap_;
  SimTime floor_ = 0;
  size_t ring_size_ = 0;
  size_t size_ = 0;
  uint64_t min_next_seq_ = 0;  // per-lifetime order check
};

}  // namespace gtpl::sim

#endif  // GTPL_SIM_EVENT_QUEUE_H_
