#include "core/precedence_graph.h"

#include <algorithm>

#include "common/check.h"

namespace gtpl::core {

void PrecedenceGraph::AddEdge(TxnId a, TxnId b, EdgeKind kind) {
  GTPL_CHECK_NE(a, b);
  auto [it, inserted] = out_[a].try_emplace(b, 0);
  if (inserted) {
    in_[b].insert(a);
    ++num_edges_;
  }
  it->second |= kind;
}

bool PrecedenceGraph::AddWaits(TxnId waiter,
                               const std::vector<TxnId>& blockers) {
  for (TxnId blocker : blockers) AddEdge(blocker, waiter, kRequestEdge);
  // Acyclic before the insert, so any cycle now uses a new edge into
  // `waiter` and exists iff `waiter` reaches one of the blockers.
  const std::unordered_set<TxnId> targets(blockers.begin(), blockers.end());
  return !ReachableAmong(waiter, targets).empty();
}

bool PrecedenceGraph::CanReach(TxnId from, TxnId to) const {
  if (from == to) return true;
  std::vector<TxnId> stack{from};
  std::unordered_set<TxnId> visited{from};
  while (!stack.empty()) {
    const TxnId node = stack.back();
    stack.pop_back();
    auto it = out_.find(node);
    if (it == out_.end()) continue;
    for (const auto& [next, kind] : it->second) {
      if (next == to) return true;
      if (visited.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

std::vector<TxnId> PrecedenceGraph::ReachableAmong(
    TxnId from, const std::unordered_set<TxnId>& candidates) const {
  std::vector<TxnId> hits;
  std::vector<TxnId> stack{from};
  std::unordered_set<TxnId> visited{from};
  while (!stack.empty()) {
    const TxnId node = stack.back();
    stack.pop_back();
    auto it = out_.find(node);
    if (it == out_.end()) continue;
    for (const auto& [next, kind] : it->second) {
      if (visited.insert(next).second) {
        if (candidates.count(next) > 0) hits.push_back(next);
        stack.push_back(next);
      }
    }
  }
  return hits;
}

void PrecedenceGraph::RemoveRequestEdgesInto(TxnId txn) {
  auto it = in_.find(txn);
  if (it == in_.end()) return;
  std::vector<TxnId> drop;
  for (TxnId from : it->second) {
    auto& kinds = out_.at(from);
    auto edge = kinds.find(txn);
    GTPL_CHECK(edge != kinds.end());
    edge->second &= static_cast<uint8_t>(~kRequestEdge);
    if (edge->second == 0) drop.push_back(from);
  }
  for (TxnId from : drop) EraseEdge(from, txn);
}

void PrecedenceGraph::PromoteRequestEdgesInto(TxnId txn) {
  auto it = in_.find(txn);
  if (it == in_.end()) return;
  for (TxnId from : it->second) {
    auto& kind = out_.at(from).at(txn);
    if ((kind & kRequestEdge) != 0) {
      kind = static_cast<uint8_t>((kind & ~kRequestEdge) | kStructuralEdge);
    }
  }
}

void PrecedenceGraph::Contract(TxnId txn) {
  // Structural in-sources: transactions whose forwarding still gates the
  // aborted transaction's pass-through slots.
  std::vector<TxnId> sources;
  if (auto it = in_.find(txn); it != in_.end()) {
    for (TxnId from : it->second) {
      if ((out_.at(from).at(txn) & kStructuralEdge) != 0) {
        sources.push_back(from);
      }
    }
  }
  std::vector<std::pair<TxnId, uint8_t>> targets;
  if (auto it = out_.find(txn); it != out_.end()) {
    targets.assign(it->second.begin(), it->second.end());
  }
  for (TxnId from : sources) {
    for (const auto& [to, kind] : targets) {
      if (from == to) continue;
      if ((kind & kStructuralEdge) != 0) AddEdge(from, to, kStructuralEdge);
      if ((kind & kRequestEdge) != 0) AddEdge(from, to, kRequestEdge);
    }
  }
  RemoveTxn(txn);
}

void PrecedenceGraph::EraseEdge(TxnId a, TxnId b) {
  auto out_it = out_.find(a);
  GTPL_CHECK(out_it != out_.end());
  out_it->second.erase(b);
  if (out_it->second.empty()) out_.erase(out_it);
  auto in_it = in_.find(b);
  GTPL_CHECK(in_it != in_.end());
  in_it->second.erase(a);
  if (in_it->second.empty()) in_.erase(in_it);
  --num_edges_;
}

void PrecedenceGraph::RemoveTxn(TxnId txn) {
  if (auto it = out_.find(txn); it != out_.end()) {
    // Copy targets: EraseEdge mutates the container.
    std::vector<TxnId> targets;
    targets.reserve(it->second.size());
    for (const auto& [to, kind] : it->second) targets.push_back(to);
    for (TxnId to : targets) EraseEdge(txn, to);
  }
  if (auto it = in_.find(txn); it != in_.end()) {
    std::vector<TxnId> sources(it->second.begin(), it->second.end());
    for (TxnId from : sources) EraseEdge(from, txn);
  }
}

bool PrecedenceGraph::HasEdge(TxnId a, TxnId b) const {
  auto it = out_.find(a);
  return it != out_.end() && it->second.count(b) > 0;
}

std::vector<TxnId> PrecedenceGraph::OutTargets(TxnId txn) const {
  std::vector<TxnId> targets;
  if (auto it = out_.find(txn); it != out_.end()) {
    targets.reserve(it->second.size());
    for (const auto& [to, kind] : it->second) targets.push_back(to);
  }
  return targets;
}

std::vector<TxnId> PrecedenceGraph::ConsistentOrder(
    const std::vector<TxnId>& txns) const {
  const size_t n = txns.size();
  if (n <= 1) return txns;
  // Constraints are global paths (they may run through transactions outside
  // the batch), so reachability is queried on the full graph.
  std::unordered_set<TxnId> batch(txns.begin(), txns.end());
  GTPL_CHECK_EQ(batch.size(), n) << "duplicate txns in batch";
  std::vector<std::vector<size_t>> succs(n);
  std::vector<int32_t> pending_preds(n, 0);
  std::unordered_map<TxnId, size_t> index;
  for (size_t i = 0; i < n; ++i) index[txns[i]] = i;
  for (size_t i = 0; i < n; ++i) {
    for (TxnId target : ReachableAmong(txns[i], batch)) {
      const size_t j = index[target];
      succs[i].push_back(j);
      ++pending_preds[j];
    }
  }
  // Kahn's algorithm; among ready nodes pick the smallest input index (FIFO
  // or pre-sorted preference). Batches are capped small, so O(n^2) is fine.
  std::vector<TxnId> order;
  order.reserve(n);
  std::vector<bool> done(n, false);
  for (size_t step = 0; step < n; ++step) {
    size_t pick = n;
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && pending_preds[i] == 0) {
        pick = i;
        break;
      }
    }
    GTPL_CHECK_LT(pick, n) << "precedence cycle within batch";
    done[pick] = true;
    order.push_back(txns[pick]);
    for (size_t j : succs[pick]) --pending_preds[j];
  }
  return order;
}

bool PrecedenceGraph::IsAcyclic() const {
  std::unordered_map<TxnId, int32_t> degree;
  for (const auto& [node, targets] : out_) {
    degree.try_emplace(node, 0);
    for (const auto& [to, kind] : targets) ++degree[to];
  }
  std::vector<TxnId> ready;
  for (const auto& [node, d] : degree) {
    if (d == 0) ready.push_back(node);
  }
  size_t removed = 0;
  while (!ready.empty()) {
    const TxnId node = ready.back();
    ready.pop_back();
    ++removed;
    auto it = out_.find(node);
    if (it == out_.end()) continue;
    for (const auto& [to, kind] : it->second) {
      if (--degree[to] == 0) ready.push_back(to);
    }
  }
  return removed == degree.size();
}

}  // namespace gtpl::core
