#ifndef GTPL_DB_WAITS_FOR_GRAPH_H_
#define GTPL_DB_WAITS_FOR_GRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace gtpl::db {

/// Waits-for graph for s-2PL deadlock detection.
///
/// Edge a -> b means "a waits for b". Following the paper (and commercial
/// practice), detection is initiated whenever a lock cannot be granted; the
/// caller then asks whether the new waiter closed a cycle and aborts it.
class WaitsForGraph {
 public:
  WaitsForGraph() = default;

  /// Declares that `waiter` now waits for every transaction in `holders`.
  void AddWaits(TxnId waiter, const std::vector<TxnId>& holders);

  /// Removes every edge in or out of `txn` (commit or abort).
  void RemoveTxn(TxnId txn);

  /// Removes only `txn`'s outgoing edges: its lock request was granted, so
  /// it waits for nobody, but others may still wait for it.
  void ClearWaits(TxnId txn);

  /// True iff `start` lies on a cycle (DFS from `start`): the deadlock
  /// test after `start` blocked.
  bool HasCycleFrom(TxnId start) const;

  /// Number of outgoing wait edges of `txn`.
  int32_t OutDegree(TxnId txn) const;

  size_t num_nodes() const { return out_.size(); }

 private:
  std::unordered_map<TxnId, std::unordered_set<TxnId>> out_;
  std::unordered_map<TxnId, std::unordered_set<TxnId>> in_;
};

}  // namespace gtpl::db

#endif  // GTPL_DB_WAITS_FOR_GRAPH_H_
