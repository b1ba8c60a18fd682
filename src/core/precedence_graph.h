#ifndef GTPL_CORE_PRECEDENCE_GRAPH_H_
#define GTPL_CORE_PRECEDENCE_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace gtpl::core {

/// Why a precedence edge exists. An edge may carry both kinds at once (the
/// kinds are a bitmask); it disappears when its last kind is removed.
enum EdgeKind : uint8_t {
  /// "holder/window-member precedes an outstanding requester". Dissolves as
  /// soon as the requester's wait ends: at grant (window dispatch) or abort.
  kRequestEdge = 1,
  /// Forward-list chain order between consecutive entries of a dispatched
  /// window. Persists until the upstream transaction is fully drained.
  kStructuralEdge = 2,
};

/// Transaction precedence graph (paper §3.3): a directed acyclic graph whose
/// edge a -> b means "a accesses data before b" — equivalently, b
/// (transitively) waits for a. Deadlock avoidance keeps the graph acyclic:
/// any required edge that would close a cycle triggers an abort instead.
///
/// The graph is consistent with the lock-granting order, hence with the
/// serialization order of the g-2PL schedule. The lock-based engines (s-2PL
/// detection, CBL) run deadlock detection on it too: "w waits for h" is the
/// request edge h -> w (AddWaits).
///
/// Nodes live in dense slots, each with a flat out-list and in-list of slot
/// indices; the TxnId -> slot map is consulted only where a call enters. A
/// node exists exactly while it has an edge: its slot returns to a free list
/// with its last edge and keeps its lists' capacity for the next occupant.
/// Walks (CanReach, ReachableAmong, AddWaits) mark slots with a per-walk
/// epoch in reused scratch, so they neither hash nor allocate per visited
/// node. That scratch makes even the const queries unsafe to run
/// concurrently, which needs no lock: every graph belongs to one serial
/// engine run (the window manager, the detect policy or CBL's engine), and
/// the parallel engine owns none.
class PrecedenceGraph {
 public:
  PrecedenceGraph() = default;

  /// Adds a -> b with the given kind (or adds the kind to an existing edge).
  /// Callers must have established that no cycle results.
  void AddEdge(TxnId a, TxnId b, EdgeKind kind);

  /// Deadlock detection at block time: `waiter` now waits for every
  /// transaction in `blockers` (a request edge blocker -> waiter each).
  /// Returns true iff the new edges closed a cycle, i.e. `waiter` reaches a
  /// blocker. The graph must be acyclic before the call, so the caller
  /// breaks a reported cycle by removing a transaction on it (RemoveTxn).
  bool AddWaits(TxnId waiter, const std::vector<TxnId>& blockers);

  /// True iff a path from `from` to `to` exists (any edge kinds).
  bool CanReach(TxnId from, TxnId to) const;

  /// Subset of `candidates` reachable from `from` (single DFS that stops
  /// once every candidate in the graph is hit). The order of the hits is
  /// unspecified: a caller that acts on them in turn sorts them first.
  std::vector<TxnId> ReachableAmong(
      TxnId from, const std::unordered_set<TxnId>& candidates) const;

  /// Drops the request-kind from every edge into `txn` (the transaction's
  /// outstanding request was granted or aborted; it waits on no window now).
  /// Sequential transaction execution means one outstanding request at a
  /// time, so all current request edges into `txn` concern the same item.
  void RemoveRequestEdgesInto(TxnId txn);

  /// Upgrades every request-kind edge into `txn` to a structural edge: the
  /// transaction's wait just ended in a grant, so each "m waited-on by txn"
  /// edge (including edges bridged through contracted transactions) becomes
  /// a permanent grant-order fact that must outlive the wait.
  void PromoteRequestEdgesInto(TxnId txn);

  /// Removes a transaction while preserving the order facts and waits that
  /// flow *through* it: every (structural in-source, out-target) pair is
  /// bridged with a direct edge of the out-edge's kind, then the node is
  /// removed. Bridging cannot create cycles (reachability is unchanged).
  ///
  /// Used both for aborted transactions (their slots still pass data along,
  /// so downstream waiters transitively wait on their upstream sources; the
  /// victim's own request in-edges are dropped by the caller first) and for
  /// drained committed transactions (a finished-but-undrained predecessor,
  /// e.g. an MR1W writer awaiting reader releases, may still need its
  /// transitive grant-order constraints enforced against live grantees).
  void Contract(TxnId txn);

  /// Removes the node and all incident edges (transaction fully drained).
  void RemoveTxn(TxnId txn);

  /// Orders `txns` so that every existing path u ~> v among them puts u
  /// before v. Ties are broken by position in the input sequence, so callers
  /// get FIFO (or any pre-sorted preference) subject to constraints.
  std::vector<TxnId> ConsistentOrder(const std::vector<TxnId>& txns) const;

  int64_t num_edges() const { return num_edges_; }
  bool HasEdge(TxnId a, TxnId b) const;

  /// True iff any edge points into `txn`.
  bool HasInEdges(TxnId txn) const {
    const int32_t slot = SlotOf(txn);
    return slot >= 0 && !nodes_[static_cast<size_t>(slot)].in.empty();
  }

  /// Targets of `txn`'s outgoing edges (any kind).
  std::vector<TxnId> OutTargets(TxnId txn) const;

  /// Exhaustive acyclicity check (O(V+E); for tests and debug assertions).
  bool IsAcyclic() const;

 private:
  struct OutEdge {
    int32_t slot;
    uint8_t kinds;  // EdgeKind bitmask, never 0
  };
  struct Node {
    TxnId txn = kInvalidTxn;
    std::vector<OutEdge> out;
    std::vector<int32_t> in;  // source slots
  };

  /// The slot holding `txn`, or -1 when it has no edge.
  int32_t SlotOf(TxnId txn) const {
    auto it = slot_of_.find(txn);
    return it == slot_of_.end() ? -1 : it->second;
  }
  int32_t AcquireSlot(TxnId txn);
  void ReleaseIfIsolated(int32_t slot);
  OutEdge& FindOut(int32_t from, int32_t to);
  void Link(int32_t from, int32_t to, uint8_t kinds);
  void EraseEdge(int32_t from, int32_t to);

  /// Starts a walk: a new epoch clears every mark of the previous one.
  void BeginWalk() const { ++epoch_; }
  /// Marks `txn` as a target of the current walk. Returns false when it has
  /// no slot.
  bool MarkWanted(TxnId txn) const;
  /// Depth-first walk from slot `from` that stops after `targets` marked
  /// slots are reached. Appends the reached targets' txns to `hits` when
  /// given; returns how many it reached.
  int32_t Walk(int32_t from, int32_t targets, std::vector<TxnId>* hits) const;

  std::vector<Node> nodes_;
  std::vector<int32_t> free_slots_;
  std::unordered_map<TxnId, int32_t> slot_of_;
  int64_t num_edges_ = 0;

  // Walk scratch, one mark per slot: a slot is seen (wanted) in the current
  // walk iff its mark equals epoch_. 64-bit epochs never wrap.
  mutable std::vector<uint64_t> seen_;
  mutable std::vector<uint64_t> wanted_;
  mutable uint64_t epoch_ = 0;
  mutable std::vector<int32_t> stack_;
};

}  // namespace gtpl::core

#endif  // GTPL_CORE_PRECEDENCE_GRAPH_H_
