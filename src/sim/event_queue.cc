#include "sim/event_queue.h"

#include <bit>
#include <utility>

#include "common/check.h"

namespace gtpl::sim {

void EventQueue::Push(SimTime time, uint64_t seq, Callback&& action) {
  // The ring pops each tick in push order, which is (time, seq) order only
  // while seqs rise; and a tick below the floor has no bucket.
  GTPL_CHECK_GE(seq, min_next_seq_)
      << "duplicate event seq " << seq << " (or one below an earlier seq)"
      << " breaks the (time, seq) determinism tiebreak";
  GTPL_CHECK_GE(time, floor_) << "event scheduled before the last pop";
  min_next_seq_ = seq + 1;
  const uint32_t slot = AllocSlot(seq, std::move(action));
  if (time - floor_ < kSpan) {
    Append(BucketOf(time), slot);
    ++ring_size_;
  } else {
    HeapPush(Key{time, seq, slot});
  }
  ++size_;
}

Event EventQueue::Pop() {
  GTPL_CHECK(size_ > 0);
  if (ring_size_ == 0) {
    // Floor jump: the earliest event is the heap's top. Pop it there and
    // move the floor to its tick; the heap events the span now covers
    // enter the ring.
    const Key key = HeapPop();
    floor_ = key.time;
    Migrate();
    return Take(key.time, key.slot);
  }
  const size_t bucket = NextBucket();
  const SimTime time = TickOf(bucket);
  uint32_t& tail = tails_[bucket];
  Slot& last = slots_[tail];
  const uint32_t slot = last.next;  // the head
  if (slot != tail) {
    last.next = slots_[slot].next;
  } else {
    tail = kNil;
    uint64_t& word = occupied_[bucket / 64];
    word &= ~(uint64_t{1} << (bucket % 64));
    if (word == 0) occupied_words_ &= ~(uint64_t{1} << (bucket / 64));
  }
  --ring_size_;
  if (time != floor_) {
    floor_ = time;
    Migrate();
  }
  return Take(time, slot);
}

SimTime EventQueue::PeekTime() const {
  GTPL_CHECK(size_ > 0);
  if (ring_size_ == 0) return heap_.front().time;
  return TickOf(NextBucket());
}

void EventQueue::Clear() {
  slots_.clear();
  free_head_ = kNil;
  tails_.fill(kNil);
  occupied_.fill(0);
  occupied_words_ = 0;
  heap_.clear();
  floor_ = 0;
  ring_size_ = 0;
  size_ = 0;
}

uint32_t EventQueue::AllocSlot(uint64_t seq, Callback&& action) {
  uint32_t slot = free_head_;
  if (slot == kNil) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].next;
  }
  Slot& entry = slots_[slot];
  entry.action = std::move(action);
  entry.seq = seq;
  return slot;
}

Event EventQueue::Take(SimTime time, uint32_t slot) {
  Slot& entry = slots_[slot];
  Event event{time, entry.seq, std::move(entry.action)};
  entry.next = free_head_;
  free_head_ = slot;
  --size_;
  return event;
}

void EventQueue::Append(size_t bucket, uint32_t slot) {
  uint32_t& tail = tails_[bucket];
  if (tail == kNil) {
    slots_[slot].next = slot;
    occupied_[bucket / 64] |= uint64_t{1} << (bucket % 64);
    occupied_words_ |= uint64_t{1} << (bucket / 64);
  } else {
    Slot& last = slots_[tail];
    slots_[slot].next = last.next;
    last.next = slot;
  }
  tail = slot;
}

size_t EventQueue::NextBucket() const {
  const size_t start = BucketOf(floor_);
  const size_t first_word = start / 64;
  const uint64_t here = occupied_[first_word] & (~uint64_t{0} << (start % 64));
  if (here != 0) {
    return first_word * 64 + static_cast<size_t>(std::countr_zero(here));
  }
  // The words after the floor's, then (wrapping around) the lowest one.
  uint64_t words = occupied_words_ & ~((uint64_t{2} << first_word) - 1);
  if (words == 0) words = occupied_words_;
  const size_t word = static_cast<size_t>(std::countr_zero(words));
  return word * 64 + static_cast<size_t>(std::countr_zero(occupied_[word]));
}

void EventQueue::HeapPush(const Key& key) {
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

EventQueue::Key EventQueue::HeapPop() {
  const Key top = heap_.front();
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
  return top;
}

void EventQueue::Migrate() {
  // Heap order is (time, seq) order, and the span's new ticks hold no
  // direct push yet, so appending keeps every bucket in seq order.
  while (!heap_.empty() && heap_.front().time - floor_ < kSpan) {
    const Key key = HeapPop();
    Append(BucketOf(key.time), key.slot);
    ++ring_size_;
  }
}

}  // namespace gtpl::sim
