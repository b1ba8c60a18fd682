#include "core/precedence_graph.h"

#include <algorithm>

#include "common/check.h"

namespace gtpl::core {

namespace {

// Removes the one element matching `pred` by moving the last element into
// its place: adjacency order carries no meaning.
template <typename T, typename Pred>
void SwapErase(std::vector<T>& items, Pred pred) {
  auto it = std::find_if(items.begin(), items.end(), pred);
  GTPL_CHECK(it != items.end());
  *it = items.back();
  items.pop_back();
}

}  // namespace

int32_t PrecedenceGraph::AcquireSlot(TxnId txn) {
  auto [it, inserted] = slot_of_.try_emplace(txn, 0);
  if (!inserted) return it->second;
  if (free_slots_.empty()) {
    it->second = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    seen_.push_back(0);
    wanted_.push_back(0);
  } else {
    it->second = free_slots_.back();
    free_slots_.pop_back();
  }
  nodes_[static_cast<size_t>(it->second)].txn = txn;
  return it->second;
}

void PrecedenceGraph::ReleaseIfIsolated(int32_t slot) {
  Node& node = nodes_[static_cast<size_t>(slot)];
  if (!node.out.empty() || !node.in.empty()) return;
  slot_of_.erase(node.txn);
  free_slots_.push_back(slot);
}

PrecedenceGraph::OutEdge& PrecedenceGraph::FindOut(int32_t from, int32_t to) {
  std::vector<OutEdge>& out = nodes_[static_cast<size_t>(from)].out;
  auto it = std::find_if(out.begin(), out.end(),
                         [to](const OutEdge& edge) { return edge.slot == to; });
  GTPL_CHECK(it != out.end());
  return *it;
}

void PrecedenceGraph::Link(int32_t from, int32_t to, uint8_t kinds) {
  std::vector<OutEdge>& out = nodes_[static_cast<size_t>(from)].out;
  for (OutEdge& edge : out) {
    if (edge.slot == to) {
      edge.kinds |= kinds;
      return;
    }
  }
  out.push_back(OutEdge{to, kinds});
  nodes_[static_cast<size_t>(to)].in.push_back(from);
  ++num_edges_;
}

void PrecedenceGraph::EraseEdge(int32_t from, int32_t to) {
  SwapErase(nodes_[static_cast<size_t>(from)].out,
            [to](const OutEdge& edge) { return edge.slot == to; });
  SwapErase(nodes_[static_cast<size_t>(to)].in,
            [from](int32_t source) { return source == from; });
  --num_edges_;
  ReleaseIfIsolated(from);
  ReleaseIfIsolated(to);
}

void PrecedenceGraph::AddEdge(TxnId a, TxnId b, EdgeKind kind) {
  GTPL_CHECK_NE(a, b);
  const int32_t from = AcquireSlot(a);
  const int32_t to = AcquireSlot(b);
  Link(from, to, kind);
}

bool PrecedenceGraph::MarkWanted(TxnId txn) const {
  const int32_t slot = SlotOf(txn);
  if (slot < 0) return false;
  wanted_[static_cast<size_t>(slot)] = epoch_;
  return true;
}

int32_t PrecedenceGraph::Walk(int32_t from, int32_t targets,
                              std::vector<TxnId>* hits) const {
  int32_t reached = 0;
  stack_.clear();
  seen_[static_cast<size_t>(from)] = epoch_;
  stack_.push_back(from);
  while (!stack_.empty()) {
    const int32_t node = stack_.back();
    stack_.pop_back();
    for (const OutEdge& edge : nodes_[static_cast<size_t>(node)].out) {
      const auto next = static_cast<size_t>(edge.slot);
      if (seen_[next] == epoch_) continue;
      seen_[next] = epoch_;
      if (wanted_[next] == epoch_) {
        if (hits != nullptr) hits->push_back(nodes_[next].txn);
        if (++reached == targets) return reached;
      }
      stack_.push_back(edge.slot);
    }
  }
  return reached;
}

bool PrecedenceGraph::AddWaits(TxnId waiter,
                               const std::vector<TxnId>& blockers) {
  for (TxnId blocker : blockers) AddEdge(blocker, waiter, kRequestEdge);
  if (blockers.empty()) return false;
  // Acyclic before the insert, so any cycle now uses a new edge into
  // `waiter` and exists iff `waiter` reaches one of the blockers.
  BeginWalk();
  for (TxnId blocker : blockers) MarkWanted(blocker);
  return Walk(SlotOf(waiter), 1, nullptr) > 0;
}

bool PrecedenceGraph::CanReach(TxnId from, TxnId to) const {
  if (from == to) return true;
  const int32_t slot = SlotOf(from);
  if (slot < 0) return false;
  BeginWalk();
  return MarkWanted(to) && Walk(slot, 1, nullptr) > 0;
}

std::vector<TxnId> PrecedenceGraph::ReachableAmong(
    TxnId from, const std::unordered_set<TxnId>& candidates) const {
  std::vector<TxnId> hits;
  const int32_t slot = SlotOf(from);
  if (slot < 0) return hits;
  BeginWalk();
  int32_t targets = 0;
  for (TxnId candidate : candidates) {
    if (candidate != from && MarkWanted(candidate)) ++targets;
  }
  if (targets > 0) Walk(slot, targets, &hits);
  return hits;
}

void PrecedenceGraph::RemoveRequestEdgesInto(TxnId txn) {
  const int32_t slot = SlotOf(txn);
  if (slot < 0) return;
  const std::vector<int32_t>& in = nodes_[static_cast<size_t>(slot)].in;
  // Backwards: erasing an edge moves the last (already visited) source into
  // the erased position.
  for (size_t i = in.size(); i-- > 0;) {
    const int32_t from = in[i];
    OutEdge& edge = FindOut(from, slot);
    edge.kinds &= static_cast<uint8_t>(~kRequestEdge);
    if (edge.kinds == 0) EraseEdge(from, slot);
  }
}

void PrecedenceGraph::PromoteRequestEdgesInto(TxnId txn) {
  const int32_t slot = SlotOf(txn);
  if (slot < 0) return;
  for (int32_t from : nodes_[static_cast<size_t>(slot)].in) {
    uint8_t& kinds = FindOut(from, slot).kinds;
    if ((kinds & kRequestEdge) != 0) {
      kinds = static_cast<uint8_t>((kinds & ~kRequestEdge) | kStructuralEdge);
    }
  }
}

void PrecedenceGraph::Contract(TxnId txn) {
  const int32_t slot = SlotOf(txn);
  if (slot < 0) return;
  // Structural in-sources: transactions whose forwarding still gates the
  // aborted transaction's pass-through slots. Bridging links existing slots
  // other than `slot`, so `node`'s lists stay put while they are read.
  const Node& node = nodes_[static_cast<size_t>(slot)];
  for (int32_t from : node.in) {
    if ((FindOut(from, slot).kinds & kStructuralEdge) == 0) continue;
    for (const OutEdge& target : node.out) {
      if (target.slot != from) Link(from, target.slot, target.kinds);
    }
  }
  RemoveTxn(txn);
}

void PrecedenceGraph::RemoveTxn(TxnId txn) {
  const int32_t slot = SlotOf(txn);
  if (slot < 0) return;
  Node& node = nodes_[static_cast<size_t>(slot)];
  for (const OutEdge& edge : node.out) {
    SwapErase(nodes_[static_cast<size_t>(edge.slot)].in,
              [slot](int32_t source) { return source == slot; });
    ReleaseIfIsolated(edge.slot);
  }
  for (int32_t from : node.in) {
    SwapErase(nodes_[static_cast<size_t>(from)].out,
              [slot](const OutEdge& edge) { return edge.slot == slot; });
    ReleaseIfIsolated(from);
  }
  num_edges_ -= static_cast<int64_t>(node.out.size() + node.in.size());
  node.out.clear();
  node.in.clear();
  ReleaseIfIsolated(slot);
}

bool PrecedenceGraph::HasEdge(TxnId a, TxnId b) const {
  const int32_t from = SlotOf(a);
  const int32_t to = SlotOf(b);
  if (from < 0 || to < 0) return false;
  const std::vector<OutEdge>& out = nodes_[static_cast<size_t>(from)].out;
  return std::any_of(out.begin(), out.end(),
                     [to](const OutEdge& edge) { return edge.slot == to; });
}

std::vector<TxnId> PrecedenceGraph::OutTargets(TxnId txn) const {
  std::vector<TxnId> targets;
  const int32_t slot = SlotOf(txn);
  if (slot < 0) return targets;
  const std::vector<OutEdge>& out = nodes_[static_cast<size_t>(slot)].out;
  targets.reserve(out.size());
  for (const OutEdge& edge : out) {
    targets.push_back(nodes_[static_cast<size_t>(edge.slot)].txn);
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
  // Kahn's algorithm over the live slots (free slots have no edges).
  std::vector<int32_t> degree(nodes_.size(), 0);
  stack_.clear();
  size_t live = 0;
  for (size_t slot = 0; slot < nodes_.size(); ++slot) {
    const Node& node = nodes_[slot];
    if (node.out.empty() && node.in.empty()) continue;
    ++live;
    degree[slot] = static_cast<int32_t>(node.in.size());
    if (degree[slot] == 0) stack_.push_back(static_cast<int32_t>(slot));
  }
  size_t removed = 0;
  while (!stack_.empty()) {
    const int32_t slot = stack_.back();
    stack_.pop_back();
    ++removed;
    for (const OutEdge& edge : nodes_[static_cast<size_t>(slot)].out) {
      if (--degree[static_cast<size_t>(edge.slot)] == 0) {
        stack_.push_back(edge.slot);
      }
    }
  }
  return removed == live;
}

}  // namespace gtpl::core
