#ifndef GTPL_CORE_WINDOW_MANAGER_H_
#define GTPL_CORE_WINDOW_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "core/adaptive_window.h"
#include "core/forward_list.h"
#include "core/ordering.h"
#include "core/precedence_graph.h"
#include "db/data_store.h"

namespace gtpl::core {

/// Tuning knobs of the g-2PL protocol. Defaults reproduce the protocol the
/// paper evaluates (all three optimizations: grouping + deadlock avoidance +
/// MR1W, FIFO ordering, unbounded forward lists, no read-group expansion).
struct G2plOptions {
  /// Multiple-Reads-Single-Write (paper §3.4): the writer following a read
  /// group receives an early copy and executes concurrently with the readers.
  bool mr1w = true;

  /// Pre-ordering rule for a window's batch (paper default: FIFO arrival).
  OrderingPolicy ordering = OrderingPolicy::kFifo;

  /// Maximum number of requests dispatched per window; 0 = unbounded.
  /// Figure 11 sweeps this cap to study deadlock-avoidance effectiveness.
  int32_t max_forward_list_length = 0;

  /// The paper's future-work read-only optimization (§3.3): a read request
  /// arriving for an item whose dispatched window is a pure read group joins
  /// that group instead of waiting for the next window, eliminating
  /// read-only deadlocks. Off by default (not part of the evaluated g-2PL).
  bool expand_read_groups = false;

  /// After this many consecutive restarts at a client, deadlock avoidance
  /// tries to abort the opposing window member instead of the requester
  /// (the paper's aging mechanism against cyclic restarts).
  int32_t aging_threshold = std::numeric_limits<int32_t>::max();

  /// Online per-item AIMD tuning of the effective forward-list cap, with the
  /// fixed parameters of core/adaptive_window.h (DESIGN.md §10). When on it
  /// replaces `max_forward_list_length`; off by default, and off is
  /// bit-identical to the static-cap path.
  bool adaptive_window = false;
};

/// The data servers' window state machine — the core of the g-2PL protocol.
/// One manager spans the whole item space: each item's window state lives
/// with the item (a sharded engine routes an item's messages to its owning
/// shard's site), while the precedence graph, the txn -> client map and the
/// ghost set are global. Because deadlock avoidance and forward-list
/// reordering always consult that one graph, the same-pair-same-order
/// property of §3.3 holds across shards, not just per item: two
/// transactions granted on different servers can never be serialized in
/// opposite orders.
///
/// The manager is transport-agnostic: it makes protocol decisions and emits
/// them through callbacks; the protocol layer (ShardedG2plEngine in
/// protocols/sharded.cc) turns them into network messages. Simulated
/// decision cost is zero, following the paper: reordering happens while the
/// server waits for items to return, so it adds no blocking time, and the
/// servers' shared coordination plane is instantaneous (DESIGN.md §8).
class WindowManager {
 public:
  struct Callbacks {
    /// Dispatch a new window: send `version` of `item` to the first entry of
    /// `fl` (read-group copies / writer / MR1W early copy are the protocol
    /// layer's job).
    std::function<void(ItemId item, Version version,
                       std::shared_ptr<const ForwardList> fl)>
        dispatch;
    /// Abort `txn` at `client` (deadlock-avoidance victim).
    std::function<void(TxnId txn, SiteId client)> abort;
    /// Read-group expansion admitted `txn`: ship it a copy of `item` at
    /// `version`; it is the last member of entry 0 of `fl`.
    std::function<void(ItemId item, Version version,
                       std::shared_ptr<const ForwardList> fl, TxnId txn,
                       SiteId client)>
        expand;
    /// Whether `txn` may still be chosen as an abort victim (false once it
    /// committed or is already doomed). Optional; absent = always true.
    std::function<bool(TxnId txn)> can_abort;
  };

  WindowManager(int32_t num_items, const G2plOptions& options,
                db::DataStore* store, Callbacks callbacks);

  WindowManager(const WindowManager&) = delete;
  WindowManager& operator=(const WindowManager&) = delete;

  /// A lock/data request arrived at the server. May dispatch a singleton
  /// window (item at server), join/expand the current window, enqueue into
  /// the collection window, or abort a victim. Callers pass requests of live
  /// transactions only: a request still in flight when its transaction
  /// aborted is dropped by the caller before it gets here.
  void OnRequest(TxnId txn, SiteId client, ItemId item, LockMode mode,
                 int32_t restart_count);

  /// A return message for `item` reached the server (from the final writer,
  /// or one of the final read group's members). Installs and redispatches
  /// once all expected returns arrived.
  void OnReturn(ItemId item, Version version);

  /// `txn` aborted: purge its pending request and memberships and contract
  /// it out of the precedence graph. An aborted transaction waits for
  /// nothing and serializes with nobody; it merely passes data along its
  /// slots.
  void OnTxnAborted(TxnId txn);

  /// `txn` is fully drained: finished *and* every forward-list slot it
  /// occupied has been forwarded. Retires it from the graph and all accessor
  /// sets once no edges point into it; until then it lingers as a "ghost" so
  /// that future grants are still ordered after it (under MR1W a writer can
  /// drain while its read-group predecessors run).
  void OnTxnDrained(TxnId txn);

  /// Counters for metrics and tests.
  int64_t windows_dispatched() const { return windows_dispatched_; }
  /// Avoidance aborts found while dispatching a window: batch members that
  /// already precede a past accessor, and pending requests that precede a
  /// batch member.
  int64_t aborts_at_dispatch_batch() const { return aborts_at_dispatch_batch_; }
  int64_t aborts_at_dispatch_pending() const {
    return aborts_at_dispatch_pending_;
  }
  int64_t expansions() const { return expansions_; }
  /// Mean forward-list length over dispatched windows.
  double MeanForwardListLength() const;

  /// The adaptive cap controller, or null when `adaptive_window` is false.
  const AdaptiveWindowController* adaptive_controller() const {
    return adaptive_.get();
  }

  const PrecedenceGraph& graph() const { return graph_; }
  bool ItemAtServer(ItemId item) const;
  int32_t PendingCount(ItemId item) const;

 private:
  struct ItemState {
    bool at_server = true;
    std::shared_ptr<const ForwardList> fl;  // current out window (or null)
    // Transactions that were granted this item (in the current or an
    // earlier window) and are not yet fully drained. Every new grant is
    // ordered after all of them; drained transactions can safely be
    // forgotten (no edge can ever point into a finished transaction).
    std::unordered_set<TxnId> undrained_members;
    int32_t returns_expected = 0;
    int32_t returns_received = 0;
    Version return_version = -1;
    std::deque<PendingRequest> pending;
  };

  /// Picks a victim for the would-be cycle between `requester` and the
  /// window members it reaches. Returns true when the REQUESTER survives
  /// (some members were aborted under aging); false when the requester was
  /// aborted.
  bool ResolveCycle(ItemId item, const PendingRequest& request,
                    std::vector<TxnId> reached_members);

  /// Closes the window bookkeeping and dispatches the next batch (if any).
  void InstallAndRedispatch(ItemId item);

  /// Dispatches up to max_forward_list_length pending requests of `item`.
  /// Precondition: item at server, pending not empty.
  void DispatchWindow(ItemId item);

  /// Aborts `txn` as a deadlock-avoidance/aging victim. `decided_at` is the
  /// item whose window decision chose the victim; it receives the adaptive
  /// controller's abort feedback (kInvalidItem when the decision has no item
  /// context, e.g. an engine-driven external abort).
  void AbortTxn(TxnId txn, SiteId client, ItemId decided_at);

  /// The effective forward-list cap for a new window of `item` (settling
  /// the controller's interval accounting when adaptive), 0 = unbounded.
  int32_t NextWindowCap(ItemId item);

  /// The cap a read-group expansion of `item` must honor (pure read).
  int32_t ExpansionCap(ItemId item) const;

  /// Removes a node from the graph and the accessor sets, and cascades to
  /// ghosts whose last in-edge it held.
  void RetireTxn(TxnId txn);

  /// Erases `txn` from the accessor sets of the items it was granted.
  void EraseMembership(TxnId txn);

  /// Adds structural grant-order edges from every undrained past accessor
  /// of `item` to `grantee`. With `skip_current_window`, the members of the
  /// currently dispatched forward list are excluded (used by read-group
  /// expansion, which joins that window rather than follows it).
  void AddAccessorOrderEdges(ItemId item, TxnId grantee,
                             bool skip_current_window = false);

  /// True iff `txn` already precedes an undrained accessor of `item` from a
  /// window older than the current one (expansion would be inconsistent).
  bool ReachesOlderAccessor(ItemId item, TxnId txn);

  ItemState& StateOf(ItemId item);

  G2plOptions options_;
  db::DataStore* store_;
  Callbacks callbacks_;
  std::vector<ItemState> items_;
  // Non-null iff options_.adaptive_window; tunes the per-item cap.
  std::unique_ptr<AdaptiveWindowController> adaptive_;
  // While AbortTxn purges the victim for a decision made at this item, the
  // purge of the victim's own pending entry at the same item must not charge
  // a second feedback signal (the decision already did).
  ItemId purge_feedback_suppressed_item_ = kInvalidItem;
  PrecedenceGraph graph_;
  // txn -> client site, read only by ResolveCycle's aging path to name the
  // client of a window member it aborts; erased at retirement.
  std::unordered_map<TxnId, SiteId> txn_client_;
  // Drained but not yet retired (something still points into them).
  std::unordered_set<TxnId> ghosts_;
  // txn -> items whose current window lists it as (undrained) member.
  std::unordered_map<TxnId, std::vector<ItemId>> member_of_;
  // txn -> item of its single outstanding (pending) request, if any.
  std::unordered_map<TxnId, ItemId> outstanding_request_;
  int64_t windows_dispatched_ = 0;
  int64_t total_dispatched_requests_ = 0;
  int64_t aborts_at_dispatch_batch_ = 0;
  int64_t aborts_at_dispatch_pending_ = 0;
  int64_t expansions_ = 0;
};

}  // namespace gtpl::core

#endif  // GTPL_CORE_WINDOW_MANAGER_H_
