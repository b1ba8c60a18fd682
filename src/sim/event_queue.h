#ifndef GTPL_SIM_EVENT_QUEUE_H_
#define GTPL_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace gtpl::sim {

/// A scheduled callback. Events compare by (time, sequence number), so two
/// events scheduled for the same tick fire in scheduling order — this is what
/// makes runs bit-for-bit deterministic.
struct Event {
  SimTime time = 0;
  uint64_t seq = 0;
  std::function<void()> action;
};

/// Binary min-heap of events ordered by (time, seq).
///
/// The heap holds only compact {time, seq, slot} keys; each callback stays
/// put in a slot array until its event is popped, and freed slots are
/// reused. A sift therefore moves 24-byte keys into a hole instead of
/// swapping std::functions. Hand-rolled rather than std::priority_queue so
/// that Pop can move the callback out and the arrays can be cleared and
/// reserved explicitly between runs.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event. `seq` must be unique per queue lifetime: it is the
  /// same-tick tiebreak, and a duplicate makes event order depend on heap
  /// internals instead of scheduling order. Every scheduler hands out seqs
  /// from a counter, so debug builds check the stronger rule that each seq
  /// exceeds the previous one, in constant memory; a duplicate or
  /// out-of-order seq aborts.
  void Push(SimTime time, uint64_t seq, std::function<void()> action);

  /// Removes and returns the earliest event. Precondition: !empty().
  Event Pop();

  /// Time of the earliest event. Precondition: !empty().
  SimTime PeekTime() const;

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void Clear() {
    heap_.clear();
    actions_.clear();
    free_slots_.clear();
  }
  void Reserve(size_t n) {
    heap_.reserve(n);
    actions_.reserve(n);
  }

 private:
  struct Key {
    SimTime time = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;  // index into actions_
  };

  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::vector<Key> heap_;
  std::vector<std::function<void()>> actions_;  // by slot; empty when free
  std::vector<uint32_t> free_slots_;
#ifndef NDEBUG
  uint64_t min_next_seq_ = 0;  // per-lifetime uniqueness check
#endif
};

}  // namespace gtpl::sim

#endif  // GTPL_SIM_EVENT_QUEUE_H_
