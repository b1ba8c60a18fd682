#include "sim/simulator.h"

#include <utility>

#include "common/check.h"

namespace gtpl::sim {

void Simulator::Schedule(SimTime delay, Callback&& action) {
  GTPL_CHECK_GE(delay, 0);
  queue_.Push(now_ + delay, next_seq_++, std::move(action));
}

void Simulator::ScheduleAt(SimTime when, Callback&& action) {
  GTPL_CHECK_GE(when, now_);
  queue_.Push(when, next_seq_++, std::move(action));
}

uint64_t Simulator::Run(SimTime until) {
  uint64_t executed = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (until >= 0 && queue_.PeekTime() > until) break;
    Event event = queue_.Pop();
    GTPL_CHECK_GE(event.time, now_);
    now_ = event.time;
    event.action();
    ++executed;
    ++events_executed_;
  }
  if (until >= 0 && now_ < until && queue_.empty() && !stopped_) {
    // Clock still advances to the requested horizon even if nothing fires.
    now_ = until;
  }
  return executed;
}

bool Simulator::Step(SimTime until) {
  if (queue_.empty() || stopped_) return false;
  if (until >= 0 && queue_.PeekTime() > until) return false;
  Event event = queue_.Pop();
  GTPL_CHECK_GE(event.time, now_);
  now_ = event.time;
  event.action();
  ++events_executed_;
  return true;
}

}  // namespace gtpl::sim
