#include "reference.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "workloads.h"

namespace gtpl::perf {
namespace {

constexpr int64_t kEvents = 600'000;
constexpr uint64_t kInFlight = 256;

volatile uint64_t g_sink = 0;

struct Event {
  int64_t time;
  uint64_t seq;
  std::function<void()> fn;
  bool operator>(const Event& other) const {
    return time != other.time ? time > other.time : seq > other.seq;
  }
};

/// kInFlight self-rescheduling callbacks on a binary heap, each updating a
/// hash map, until `events` have run.
class EventLoop {
 public:
  uint64_t Run(int64_t events) {
    target_ = events;
    for (uint64_t c = 0; c < kInFlight; ++c) Arm(c, c, c, c);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      Event event = std::move(heap_.back());
      heap_.pop_back();
      now_ = event.time;
      event.fn();
    }
    return table_.size() + state_;
  }

 private:
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

  void Arm(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
    ++scheduled_;
    const int64_t delay = 1 + static_cast<int64_t>(Next() % 1000);
    heap_.push_back(
        Event{now_ + delay, seq_++, [this, a, b, c, d] { Step(a, b, c, d); }});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  void Step(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
    const uint64_t key = (a * 2654435761U + Next()) % 4096;
    table_[key] += b + c + d;
    if (scheduled_ < target_) Arm(a + 1, key, c ^ key, d + 1);
  }

  std::vector<Event> heap_;
  std::unordered_map<uint64_t, uint64_t> table_;
  int64_t now_ = 0;
  uint64_t seq_ = 0;
  int64_t scheduled_ = 0;
  int64_t target_ = 0;
  uint64_t state_ = 42;
};

}  // namespace

double ReferenceCpuSeconds() {
  const double start = ProcessCpuSeconds();
  EventLoop loop;
  g_sink = g_sink + loop.Run(kEvents);
  return ProcessCpuSeconds() - start;
}

}  // namespace gtpl::perf
