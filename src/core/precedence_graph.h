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
/// serialization order of the g-2PL schedule.
class PrecedenceGraph {
 public:
  PrecedenceGraph() = default;

  /// Adds a -> b with the given kind (or adds the kind to an existing edge).
  /// Callers must have established that no cycle results.
  void AddEdge(TxnId a, TxnId b, EdgeKind kind);

  /// True iff a path from `from` to `to` exists (any edge kinds).
  bool CanReach(TxnId from, TxnId to) const;

  /// Subset of `candidates` reachable from `from` (single DFS).
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
  size_t num_nodes() const { return out_.size(); }
  bool HasEdge(TxnId a, TxnId b) const;

  /// True iff any edge points into `txn`.
  bool HasInEdges(TxnId txn) const {
    auto it = in_.find(txn);
    return it != in_.end() && !it->second.empty();
  }

  /// Targets of `txn`'s outgoing edges (any kind).
  std::vector<TxnId> OutTargets(TxnId txn) const;

  /// Exhaustive acyclicity check (O(V+E); for tests and debug assertions).
  bool IsAcyclic() const;

 private:
  void EraseEdge(TxnId a, TxnId b);

  // out_[a][b] = kind bitmask of edge a -> b; in_[b] = sources of edges into b.
  std::unordered_map<TxnId, std::unordered_map<TxnId, uint8_t>> out_;
  std::unordered_map<TxnId, std::unordered_set<TxnId>> in_;
  int64_t num_edges_ = 0;
};

}  // namespace gtpl::core

#endif  // GTPL_CORE_PRECEDENCE_GRAPH_H_
