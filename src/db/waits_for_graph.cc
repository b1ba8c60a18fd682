#include "db/waits_for_graph.h"

#include "common/check.h"

namespace gtpl::db {

void WaitsForGraph::AddWaits(TxnId waiter,
                             const std::vector<TxnId>& holders) {
  for (TxnId holder : holders) {
    if (holder == waiter) continue;
    out_[waiter].insert(holder);
    in_[holder].insert(waiter);
  }
}

void WaitsForGraph::RemoveTxn(TxnId txn) {
  if (auto it = out_.find(txn); it != out_.end()) {
    for (TxnId to : it->second) {
      if (auto jt = in_.find(to); jt != in_.end()) {
        jt->second.erase(txn);
        if (jt->second.empty()) in_.erase(jt);
      }
    }
    out_.erase(it);
  }
  if (auto it = in_.find(txn); it != in_.end()) {
    for (TxnId from : it->second) {
      if (auto jt = out_.find(from); jt != out_.end()) {
        jt->second.erase(txn);
        if (jt->second.empty()) out_.erase(jt);
      }
    }
    in_.erase(it);
  }
}

void WaitsForGraph::ClearWaits(TxnId txn) {
  auto it = out_.find(txn);
  if (it == out_.end()) return;
  for (TxnId to : it->second) {
    if (auto jt = in_.find(to); jt != in_.end()) {
      jt->second.erase(txn);
      if (jt->second.empty()) in_.erase(jt);
    }
  }
  out_.erase(it);
}

bool WaitsForGraph::HasCycleFrom(TxnId start) const {
  // DFS over nodes reachable from `start`; a cycle through `start` exists
  // iff `start` is reachable from one of its successors.
  std::vector<TxnId> stack;
  std::unordered_set<TxnId> visited;
  if (auto it = out_.find(start); it != out_.end()) {
    for (TxnId next : it->second) stack.push_back(next);
  }
  while (!stack.empty()) {
    TxnId node = stack.back();
    stack.pop_back();
    if (node == start) return true;
    if (!visited.insert(node).second) continue;
    if (auto it = out_.find(node); it != out_.end()) {
      for (TxnId next : it->second) stack.push_back(next);
    }
  }
  return false;
}

int32_t WaitsForGraph::OutDegree(TxnId txn) const {
  auto it = out_.find(txn);
  return it == out_.end() ? 0 : static_cast<int32_t>(it->second.size());
}

}  // namespace gtpl::db
