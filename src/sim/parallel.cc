#include "sim/parallel.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "exec/thread_pool.h"

namespace gtpl::sim {

// ---------------------------------------------------------------------------
// ShardSim

ShardSim::ShardSim(ParallelSim* parent, int32_t index, int32_t num_lps)
    : parent_(parent), index_(index) {
  outbox_.resize(static_cast<size_t>(num_lps));
}

void ShardSim::Schedule(SimTime delay, Callback&& action) {
  GTPL_CHECK_GE(delay, 0);
  queue_.Push(now_ + delay, next_seq_++, std::move(action));
}

void ShardSim::ScheduleAt(SimTime when, Callback&& action) {
  GTPL_CHECK_GE(when, now_);
  queue_.Push(when, next_seq_++, std::move(action));
}

void ShardSim::SendTo(int32_t dst, SimTime delay, Callback&& action) {
  if (dst == index_) {
    Schedule(delay, std::move(action));
    return;
  }
  GTPL_CHECK_GE(dst, 0);
  GTPL_CHECK_LT(static_cast<size_t>(dst), outbox_.size());
  // The conservative-safety bound: a cross-LP message emitted by an event
  // below the window horizon must land at or beyond that horizon.
  GTPL_CHECK_GE(delay, parent_->lookahead())
      << "cross-LP send below the lookahead bound";
  outbox_[static_cast<size_t>(dst)].push_back(
      OutboundMsg{now_ + delay, next_send_seq_++, std::move(action)});
}

void ShardSim::Stop() {
  parent_->stop_requested_.store(true, std::memory_order_relaxed);
}

bool ShardSim::RunWindow(SimTime horizon) {
  bool ran = false;
  while (!queue_.empty() && queue_.PeekTime() < horizon) {
    Event event = queue_.Pop();
    GTPL_CHECK_GE(event.time, now_);
    now_ = event.time;
    event.action();
    ++events_executed_;
    ran = true;
  }
  return ran;
}

// ---------------------------------------------------------------------------
// ParallelSim

ParallelSim::ParallelSim(int32_t num_lps, SimTime lookahead, int num_threads)
    : lookahead_(lookahead), num_threads_(std::max(num_threads, 1)) {
  GTPL_CHECK_GE(num_lps, 1);
  GTPL_CHECK_GE(lookahead, 1) << "conservative windows need lookahead >= 1";
  lps_.reserve(static_cast<size_t>(num_lps));
  for (int32_t i = 0; i < num_lps; ++i) {
    lps_.push_back(
        std::unique_ptr<ShardSim>(new ShardSim(this, i, num_lps)));
  }
}

ParallelSim::~ParallelSim() = default;

void ParallelSim::SetBarrierHook(std::function<void(SimTime)> hook) {
  barrier_hook_ = std::move(hook);
}

uint64_t ParallelSim::FlushChannels() {
  uint64_t flushed = 0;
  // Per-destination merge: gather every source's parked channel, order by
  // (deliver_time, src_lp, src_seq) — a total order independent of how the
  // previous window's LPs were scheduled onto threads — and append to the
  // destination queue in that order (fresh local seqs keep the queue's
  // same-tick tiebreak consistent with arrival order).
  struct Inbound {
    SimTime time;
    int32_t src;
    uint64_t src_seq;
    Callback* action;
  };
  std::vector<Inbound> inbound;
  for (size_t dst = 0; dst < lps_.size(); ++dst) {
    inbound.clear();
    for (size_t src = 0; src < lps_.size(); ++src) {
      for (ShardSim::OutboundMsg& msg : lps_[src]->outbox_[dst]) {
        inbound.push_back(Inbound{msg.deliver_time, static_cast<int32_t>(src),
                                  msg.src_seq, &msg.action});
      }
    }
    std::sort(inbound.begin(), inbound.end(),
              [](const Inbound& a, const Inbound& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.src != b.src) return a.src < b.src;
                return a.src_seq < b.src_seq;
              });
    ShardSim& receiver = *lps_[dst];
    for (Inbound& msg : inbound) {
      GTPL_CHECK_GE(msg.time, receiver.now_);
      receiver.queue_.Push(msg.time, receiver.next_seq_++,
                           std::move(*msg.action));
      ++flushed;
    }
    for (size_t src = 0; src < lps_.size(); ++src) {
      lps_[src]->outbox_[dst].clear();
    }
  }
  return flushed;
}

ParallelRunStats ParallelSim::Run(SimTime until) {
  running_stats_ = ParallelRunStats{};
  ParallelRunStats& stats = running_stats_;
  stop_requested_.store(false, std::memory_order_relaxed);
  const int threads = std::min<int>(num_threads_, num_lps());
  if (threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<exec::ThreadPool>(threads);
  }
  std::vector<uint8_t> ran(lps_.size(), 0);
  while (true) {
    stats.messages += FlushChannels();
    if (stop_requested_.load(std::memory_order_relaxed)) {
      stats.stopped = true;
      break;
    }
    // The window floor: the earliest pending event across all LPs.
    bool any_event = false;
    SimTime floor = 0;
    for (const std::unique_ptr<ShardSim>& lp : lps_) {
      if (lp->queue_.empty()) continue;
      const SimTime t = lp->queue_.PeekTime();
      if (!any_event || t < floor) floor = t;
      any_event = true;
    }
    if (!any_event || (until >= 0 && floor > until)) {
      if (until >= 0) {
        // Clocks still advance to the requested horizon even if nothing
        // fires (mirrors Simulator::Run).
        for (const std::unique_ptr<ShardSim>& lp : lps_) {
          lp->now_ = std::max(lp->now_, until);
        }
      }
      break;
    }
    SimTime horizon = floor + lookahead_;
    if (until >= 0) horizon = std::min(horizon, until + 1);
    auto window = [this, horizon, &ran](int64_t i) {
      ran[static_cast<size_t>(i)] =
          lps_[static_cast<size_t>(i)]->RunWindow(horizon) ? 1 : 0;
    };
    if (threads > 1) {
      pool_->Run(num_lps(), window);
    } else {
      for (int32_t i = 0; i < num_lps(); ++i) window(i);
    }
    ++stats.windows;
    for (uint8_t r : ran) {
      if (r == 0) ++stats.stalls;
    }
    if (barrier_hook_) barrier_hook_(horizon);
  }
  return stats;
}

}  // namespace gtpl::sim
