#include "sim/event_queue.h"

#include <utility>

#include "common/check.h"

namespace gtpl::sim {

void EventQueue::Push(SimTime time, uint64_t seq, std::function<void()> action) {
#ifndef NDEBUG
  GTPL_CHECK_GE(seq, min_next_seq_)
      << "duplicate event seq " << seq << " (or one below an earlier seq)"
      << " breaks the (time, seq) determinism tiebreak";
  min_next_seq_ = seq + 1;
#endif
  uint32_t slot = static_cast<uint32_t>(actions_.size());
  if (free_slots_.empty()) {
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  const Key key{time, seq, slot};
  // Sift up: move parents down into the hole until the key fits.
  size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!Before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

Event EventQueue::Pop() {
  GTPL_CHECK(!heap_.empty());
  const Key top = heap_.front();
  Event event{top.time, top.seq, std::exchange(actions_[top.slot], nullptr)};
  free_slots_.push_back(top.slot);
  // Sift down: move the smaller child up into the hole until the last key
  // fits there.
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n > 0) {
    size_t hole = 0;
    while (true) {
      size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
      if (!Before(heap_[child], last)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
  }
  return event;
}

SimTime EventQueue::PeekTime() const {
  GTPL_CHECK(!heap_.empty());
  return heap_.front().time;
}

}  // namespace gtpl::sim
