#ifndef GTPL_SIM_PARALLEL_H_
#define GTPL_SIM_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"
#include "sim/event_queue.h"

namespace gtpl::exec {
class ThreadPool;
}  // namespace gtpl::exec

namespace gtpl::sim {

class ParallelSim;

/// One logical process (LP) of a conservative parallel discrete-event
/// simulation: its own event queue, its own clock, its own sequence
/// counters. An LP's events only touch LP-local state plus the SendTo
/// channel API, so LPs of one window execute concurrently without locks.
///
/// Determinism contract: a ShardSim's execution depends only on its own
/// schedule calls and on the (deliver_time, src_lp, src_seq)-ordered
/// message stream the ParallelSim feeds it at window barriers — never on
/// thread scheduling. Runs are therefore bit-identical at any worker
/// count (parsim_kernel_test pins this).
class ShardSim {
 public:
  ShardSim(const ShardSim&) = delete;
  ShardSim& operator=(const ShardSim&) = delete;

  /// This LP's index in the ParallelSim.
  int32_t index() const { return index_; }

  /// This LP's current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules an LP-local event `delay` ticks from now (delay >= 0; zero
  /// delays run after all currently pending same-tick events, exactly like
  /// Simulator::Schedule).
  void Schedule(SimTime delay, Callback&& action);

  /// Schedules an LP-local event at absolute time `when` (>= Now()).
  void ScheduleAt(SimTime when, Callback&& action);

  /// Sends a cross-LP message: `action` runs on LP `dst` at Now() + delay.
  /// For dst != index(), delay must be >= the ParallelSim's lookahead —
  /// that bound is what makes window-parallel execution safe (the message
  /// provably lands beyond every horizon the current window can execute
  /// under). Sending to the own LP is allowed with any delay >= 0 and is
  /// equivalent to Schedule.
  void SendTo(int32_t dst, SimTime delay, Callback&& action);

  /// Requests a global stop: every LP finishes its current window, then
  /// ParallelSim::Run returns at the barrier.
  void Stop();

  /// Events this LP executed since construction.
  uint64_t events_executed() const { return events_executed_; }

 private:
  friend class ParallelSim;

  ShardSim(ParallelSim* parent, int32_t index, int32_t num_lps);

  /// Executes every pending event with time < horizon (events this window
  /// schedules locally below the horizon run too). Returns true if at
  /// least one event ran.
  bool RunWindow(SimTime horizon);

  /// A message to another LP, parked until the next window barrier.
  struct OutboundMsg {
    SimTime deliver_time = 0;
    uint64_t src_seq = 0;  // this LP's send order, the channel tiebreak
    Callback action;
  };

  ParallelSim* parent_;
  int32_t index_;
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;       // local event order
  uint64_t next_send_seq_ = 0;  // cross-LP send order
  uint64_t events_executed_ = 0;
  std::vector<std::vector<OutboundMsg>> outbox_;  // one channel per dst LP
};

/// Counters ParallelSim::Run reports (all deterministic).
struct ParallelRunStats {
  /// Synchronization windows executed (each ends in one barrier).
  uint64_t windows = 0;
  /// Barrier stalls: over all windows, the number of (LP, window) pairs
  /// where the LP had no event below the horizon and only waited at the
  /// barrier — the idle tax of conservative synchronization.
  uint64_t stalls = 0;
  /// Cross-LP messages exchanged through the channels.
  uint64_t messages = 0;
  /// True when Run returned because an LP called Stop().
  bool stopped = false;
};

/// Conservative parallel discrete-event kernel: K ShardSim logical
/// processes advance in lockstep windows. Each window executes every event
/// strictly below a shared horizon
///
///   horizon = min_next_event_time + lookahead
///
/// where `lookahead` is the minimum cross-LP message delay (for the WAN
/// engines: the one-way propagation latency). Any message an event below
/// the horizon emits is delivered at >= its own time + lookahead >=
/// horizon, so no in-window send can affect this window — LPs are data-
/// independent inside a window and run on a thread pool. At the barrier,
/// parked messages flush into their destination queues ordered by
/// (deliver_time, src_lp, src_seq): a deterministic total order, making
/// the whole run bit-identical at any thread count.
class ParallelSim {
 public:
  /// `num_threads` <= 1 executes windows inline on the calling thread
  /// (same results; the window loop is identical).
  ParallelSim(int32_t num_lps, SimTime lookahead, int num_threads);
  ~ParallelSim();

  ParallelSim(const ParallelSim&) = delete;
  ParallelSim& operator=(const ParallelSim&) = delete;

  int32_t num_lps() const { return static_cast<int32_t>(lps_.size()); }
  SimTime lookahead() const { return lookahead_; }
  int num_threads() const { return num_threads_; }

  ShardSim& lp(int32_t index) { return *lps_[static_cast<size_t>(index)]; }

  /// Optional hook run serially at every window barrier (after the window's
  /// events executed and its messages flushed, before the next window
  /// starts). The engine layer uses it to evaluate global conditions —
  /// warmup crossings, the stop target — on deterministic snapshots. The
  /// argument is the completed window's horizon H: every event with time
  /// < H has executed on every LP, and no future event can be stamped
  /// below H — so H is the safe bound for draining per-LP trace streams
  /// and for emitting metric samples at interval crossings below H.
  void SetBarrierHook(std::function<void(SimTime)> hook);

  /// Runs windows until every queue and channel drains, `until` is passed
  /// (if >= 0; events stamped exactly `until` still run, and every LP's
  /// clock advances to at least `until`), or an LP calls Stop().
  ParallelRunStats Run(SimTime until = -1);

  /// The current run's counters so far — valid inside the barrier hook
  /// (updated before the hook fires), where the engine layer samples the
  /// kernel's window/stall telemetry as time-series gauges.
  const ParallelRunStats& running_stats() const { return running_stats_; }

 private:
  friend class ShardSim;

  /// Moves every parked cross-LP message into its destination queue in
  /// (deliver_time, src_lp, src_seq) order. Returns messages flushed.
  uint64_t FlushChannels();

  SimTime lookahead_;
  int num_threads_;
  std::vector<std::unique_ptr<ShardSim>> lps_;
  std::function<void(SimTime)> barrier_hook_;
  ParallelRunStats running_stats_;
  /// Atomic because Stop() may be called from LP events running on worker
  /// threads; a stop is a monotone flag, so the unordered writes cannot
  /// perturb determinism (it is only read at barriers).
  std::atomic<bool> stop_requested_{false};
  /// Runs the windows, one index per LP; created by the first Run that
  /// uses more than one thread.
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace gtpl::sim

#endif  // GTPL_SIM_PARALLEL_H_
