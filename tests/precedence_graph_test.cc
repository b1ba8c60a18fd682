// Unit tests for the transaction precedence graph (paper §3.3).

#include "core/precedence_graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rng/rng.h"

namespace gtpl::core {
namespace {

TEST(PrecedenceGraphTest, ReachabilityAlongPath) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kStructuralEdge);
  graph.AddEdge(2, 3, kStructuralEdge);
  EXPECT_TRUE(graph.CanReach(1, 3));
  EXPECT_FALSE(graph.CanReach(3, 1));
  EXPECT_TRUE(graph.CanReach(1, 1));
}

TEST(PrecedenceGraphTest, ReachabilityAlongRequestEdges) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kRequestEdge);
  graph.AddEdge(2, 3, kRequestEdge);
  EXPECT_TRUE(graph.CanReach(1, 3));
  EXPECT_FALSE(graph.CanReach(3, 1));
}

TEST(PrecedenceGraphTest, ReachableAmongFiltersCandidates) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kStructuralEdge);
  graph.AddEdge(2, 3, kStructuralEdge);
  graph.AddEdge(1, 4, kStructuralEdge);
  const auto hits = graph.ReachableAmong(1, {3, 5});
  EXPECT_EQ(hits, (std::vector<TxnId>{3}));
}

TEST(PrecedenceGraphTest, RequestEdgesDissolveIndependently) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kRequestEdge);
  graph.AddEdge(1, 2, kStructuralEdge);  // same edge, both kinds
  graph.RemoveRequestEdgesInto(2);
  EXPECT_TRUE(graph.HasEdge(1, 2));  // structural kind survives
  graph.AddEdge(3, 2, kRequestEdge);
  graph.RemoveRequestEdgesInto(2);
  EXPECT_FALSE(graph.HasEdge(3, 2));
}

TEST(PrecedenceGraphTest, RemoveTxnDropsAllEdges) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kStructuralEdge);
  graph.AddEdge(2, 3, kStructuralEdge);
  graph.RemoveTxn(2);
  EXPECT_FALSE(graph.CanReach(1, 3));
  EXPECT_EQ(graph.num_edges(), 0);
}

TEST(PrecedenceGraphTest, ContractPreservesThroughPaths) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kStructuralEdge);  // 1 before aborted 2
  graph.AddEdge(2, 3, kStructuralEdge);  // 2 before 3
  graph.AddEdge(2, 4, kRequestEdge);     // pending requester behind 2
  graph.Contract(2);
  EXPECT_FALSE(graph.CanReach(1, 2));
  EXPECT_TRUE(graph.CanReach(1, 3));  // bridged structurally
  EXPECT_TRUE(graph.CanReach(1, 4));  // bridged as a request edge
  graph.RemoveRequestEdgesInto(4);
  EXPECT_FALSE(graph.CanReach(1, 4));
  EXPECT_TRUE(graph.CanReach(1, 3));
}

TEST(PrecedenceGraphTest, ContractDropsOwnWaits) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kRequestEdge);  // 2's own (pending) wait: not bridged
  graph.AddEdge(2, 3, kStructuralEdge);
  graph.Contract(2);
  EXPECT_FALSE(graph.CanReach(1, 3));
}

TEST(PrecedenceGraphTest, ContractionCannotCreateCycles) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kStructuralEdge);
  graph.AddEdge(2, 3, kStructuralEdge);
  graph.AddEdge(3, 4, kStructuralEdge);
  graph.Contract(2);
  graph.Contract(3);
  EXPECT_TRUE(graph.IsAcyclic());
  EXPECT_TRUE(graph.CanReach(1, 4));
}

TEST(PrecedenceGraphTest, ConsistentOrderRespectsPaths) {
  PrecedenceGraph graph;
  graph.AddEdge(3, 1, kStructuralEdge);  // 3 must precede 1
  const std::vector<TxnId> order = graph.ConsistentOrder({1, 2, 3});
  // 3 before 1; 2 keeps its FIFO position where possible.
  auto pos = [&order](TxnId t) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == t) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos(3), pos(1));
  EXPECT_EQ(order.size(), 3u);
}

TEST(PrecedenceGraphTest, ConsistentOrderUsesTransitivePaths) {
  PrecedenceGraph graph;
  // 4 -> 9 -> 2 where 9 is outside the batch: 4 must still precede 2.
  graph.AddEdge(4, 9, kStructuralEdge);
  graph.AddEdge(9, 2, kStructuralEdge);
  const std::vector<TxnId> order = graph.ConsistentOrder({2, 4});
  EXPECT_EQ(order, (std::vector<TxnId>{4, 2}));
}

TEST(PrecedenceGraphTest, ConsistentOrderFifoWhenUnconstrained) {
  PrecedenceGraph graph;
  const std::vector<TxnId> order = graph.ConsistentOrder({7, 3, 9, 1});
  EXPECT_EQ(order, (std::vector<TxnId>{7, 3, 9, 1}));
}

TEST(PrecedenceGraphTest, IsAcyclicOnDagAndAfterMutations) {
  PrecedenceGraph graph;
  for (TxnId i = 0; i < 20; ++i) {
    graph.AddEdge(i, i + 1, i % 2 == 0 ? kStructuralEdge : kRequestEdge);
  }
  EXPECT_TRUE(graph.IsAcyclic());
  graph.RemoveTxn(10);
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST(PrecedenceGraphTest, DuplicateEdgeCountsOnce) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kStructuralEdge);
  graph.AddEdge(1, 2, kStructuralEdge);
  EXPECT_EQ(graph.num_edges(), 1);
}

// Deadlock detection on wait edges: AddWaits(w, {h}) is "w waits for h",
// the request edge h -> w.

TEST(PrecedenceGraphTest, WaitChainClosesNoCycle) {
  PrecedenceGraph graph;
  EXPECT_FALSE(graph.AddWaits(1, {2}));
  EXPECT_FALSE(graph.AddWaits(2, {3}));
  EXPECT_TRUE(graph.HasEdge(2, 1));
  EXPECT_TRUE(graph.HasEdge(3, 2));
}

TEST(PrecedenceGraphTest, ClosingWaitOfTwoCycleDetected) {
  PrecedenceGraph graph;
  EXPECT_FALSE(graph.AddWaits(1, {2}));
  EXPECT_TRUE(graph.AddWaits(2, {1}));
}

TEST(PrecedenceGraphTest, ClosingWaitOfLongCycleDetected) {
  PrecedenceGraph graph;
  EXPECT_FALSE(graph.AddWaits(1, {2}));
  EXPECT_FALSE(graph.AddWaits(2, {3}));
  EXPECT_FALSE(graph.AddWaits(3, {4}));
  EXPECT_TRUE(graph.AddWaits(4, {5, 1}));
}

TEST(PrecedenceGraphTest, RemoveTxnBreaksWaitCycle) {
  PrecedenceGraph graph;
  graph.AddWaits(1, {2});
  ASSERT_TRUE(graph.AddWaits(2, {1}));
  graph.RemoveTxn(2);  // the victim
  EXPECT_TRUE(graph.IsAcyclic());
  EXPECT_EQ(graph.num_edges(), 0);
  EXPECT_FALSE(graph.AddWaits(1, {3}));
}

TEST(PrecedenceGraphTest, GrantKeepsWaitsOnGrantee) {
  PrecedenceGraph graph;
  graph.AddWaits(1, {2});
  graph.AddWaits(2, {3});
  graph.RemoveRequestEdgesInto(2);  // 2 granted; 1 still waits for it
  EXPECT_FALSE(graph.HasEdge(3, 2));
  EXPECT_TRUE(graph.HasEdge(2, 1));
  EXPECT_TRUE(graph.AddWaits(2, {1}));
}

// A transaction at its commit point waits for nobody, while others still
// wait on the locks it holds until its releases land: it lies on no cycle,
// and its node goes with the last wait on it.
TEST(PrecedenceGraphTest, WaitedOnTxnLeavesWithItsLastWaiter) {
  PrecedenceGraph graph;
  EXPECT_FALSE(graph.AddWaits(2, {1}));
  EXPECT_FALSE(graph.AddWaits(3, {1, 2}));
  EXPECT_FALSE(graph.HasInEdges(1));
  graph.RemoveRequestEdgesInto(2);  // 2 granted
  EXPECT_EQ(graph.OutTargets(1), (std::vector<TxnId>{3}));
  graph.RemoveTxn(3);  // 3 aborted
  EXPECT_EQ(graph.num_edges(), 0);
}

// A node's slot is freed with its last edge and handed to the next new
// transaction; the freed transaction may come back later.
TEST(PrecedenceGraphTest, FreedNodeComesBackWithoutStaleEdges) {
  PrecedenceGraph graph;
  graph.AddEdge(1, 2, kStructuralEdge);
  graph.AddEdge(3, 1, kRequestEdge);
  graph.RemoveTxn(1);  // frees the slots of 1, 2 and 3
  EXPECT_EQ(graph.num_edges(), 0);
  graph.AddEdge(4, 5, kStructuralEdge);  // reuses freed slots
  graph.AddEdge(1, 6, kRequestEdge);     // 1 comes back
  EXPECT_EQ(graph.OutTargets(1), (std::vector<TxnId>{6}));
  EXPECT_FALSE(graph.HasInEdges(1));
  EXPECT_FALSE(graph.HasEdge(1, 2));
  EXPECT_FALSE(graph.HasEdge(3, 1));
  EXPECT_FALSE(graph.HasInEdges(2));
  EXPECT_TRUE(graph.OutTargets(3).empty());
  EXPECT_FALSE(graph.CanReach(3, 6));
  EXPECT_FALSE(graph.CanReach(1, 5));
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_TRUE(graph.IsAcyclic());
}

// Model check: one long-lived graph through a seeded random churn of every
// mutation, compared after each step with a reference edge map and its
// brute-force closure. Transaction ids only increase, so the graph keeps
// freeing slots and handing them to new transactions.
class GraphModel {
 public:
  using Edges = std::map<std::pair<TxnId, TxnId>, uint8_t>;

  const Edges& edges() const { return edges_; }

  void Add(TxnId a, TxnId b, uint8_t kinds) { edges_[{a, b}] |= kinds; }

  // Every transaction reachable from `from` over one or more edges.
  std::set<TxnId> Closure(TxnId from) const {
    std::set<TxnId> reached;
    std::vector<TxnId> stack{from};
    while (!stack.empty()) {
      const TxnId node = stack.back();
      stack.pop_back();
      for (auto it = edges_.lower_bound({node, kInvalidTxn});
           it != edges_.end() && it->first.first == node; ++it) {
        if (reached.insert(it->first.second).second) {
          stack.push_back(it->first.second);
        }
      }
    }
    return reached;
  }

  std::vector<TxnId> OutTargets(TxnId txn) const {
    std::vector<TxnId> targets;
    for (const auto& [edge, kinds] : edges_) {
      if (edge.first == txn) targets.push_back(edge.second);
    }
    return targets;
  }

  bool HasInEdges(TxnId txn) const {
    return std::any_of(edges_.begin(), edges_.end(), [txn](const auto& e) {
      return e.first.second == txn;
    });
  }

  // Applies `update` to the kinds of every edge into `txn`; edges left with
  // no kind disappear.
  template <typename Fn>
  void UpdateInto(TxnId txn, Fn update) {
    for (auto it = edges_.begin(); it != edges_.end();) {
      if (it->first.second == txn) it->second = update(it->second);
      it = it->second == 0 ? edges_.erase(it) : std::next(it);
    }
  }

  void Contract(TxnId txn) {
    std::vector<TxnId> sources;
    std::vector<std::pair<TxnId, uint8_t>> targets;
    for (const auto& [edge, kinds] : edges_) {
      if (edge.second == txn && (kinds & kStructuralEdge) != 0) {
        sources.push_back(edge.first);
      }
      if (edge.first == txn) targets.emplace_back(edge.second, kinds);
    }
    for (TxnId from : sources) {
      for (const auto& [to, kinds] : targets) {
        if (from != to) Add(from, to, kinds);
      }
    }
    Remove(txn);
  }

  void Remove(TxnId txn) {
    for (auto it = edges_.begin(); it != edges_.end();) {
      const bool incident = it->first.first == txn || it->first.second == txn;
      it = incident ? edges_.erase(it) : std::next(it);
    }
  }

 private:
  Edges edges_;
};

TEST(PrecedenceGraphModelTest, RandomChurnMatchesReference) {
  rng::Rng rng(20240613);
  PrecedenceGraph graph;
  GraphModel model;
  constexpr int kLive = 12;
  std::vector<TxnId> live;
  TxnId next_txn = 1;
  const auto pick = [&rng, &live] {
    return live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
  };
  // Retires one live transaction and admits a fresh id in its place.
  const auto replace = [&live, &next_txn](TxnId gone) {
    live.erase(std::find(live.begin(), live.end(), gone));
    live.push_back(next_txn++);
  };
  while (static_cast<int>(live.size()) < kLive) live.push_back(next_txn++);

  for (int step = 0; step < 2000; ++step) {
    const int64_t op = rng.UniformInt(0, 11);
    const TxnId a = pick();
    const TxnId b = pick();
    if (op <= 5) {
      // AddEdge, only where no cycle results (as its callers establish).
      const EdgeKind kind =
          rng.Bernoulli(0.5) ? kStructuralEdge : kRequestEdge;
      if (a != b && model.Closure(b).count(a) == 0) {
        graph.AddEdge(a, b, kind);
        model.Add(a, b, kind);
      }
    } else if (op == 6) {
      // AddWaits with blockers drawn with repetition; a reported cycle is
      // broken by removing the waiter, as the detect policy does.
      std::vector<TxnId> blockers;
      const int64_t n = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < n; ++i) {
        const TxnId blocker = pick();
        if (blocker != a) blockers.push_back(blocker);
      }
      for (TxnId blocker : blockers) model.Add(blocker, a, kRequestEdge);
      const std::set<TxnId> reached = model.Closure(a);
      const bool cycle =
          std::any_of(blockers.begin(), blockers.end(),
                      [&reached](TxnId t) { return reached.count(t) > 0; });
      ASSERT_EQ(graph.AddWaits(a, blockers), cycle) << "step " << step;
      if (cycle) {
        graph.RemoveTxn(a);
        model.Remove(a);
        replace(a);
      }
    } else if (op == 7) {
      graph.RemoveRequestEdgesInto(a);
      model.UpdateInto(a, [](uint8_t kinds) {
        return static_cast<uint8_t>(kinds & ~kRequestEdge);
      });
    } else if (op == 8) {
      graph.PromoteRequestEdgesInto(a);
      model.UpdateInto(a, [](uint8_t kinds) {
        return (kinds & kRequestEdge) == 0
                   ? kinds
                   : static_cast<uint8_t>((kinds & ~kRequestEdge) |
                                          kStructuralEdge);
      });
    } else if (op <= 10) {
      graph.Contract(a);
      model.Contract(a);
      replace(a);
    } else {
      graph.RemoveTxn(a);
      model.Remove(a);
      replace(a);
    }

    // Every id seen lately, retired ones included.
    const TxnId first = std::max<TxnId>(1, next_txn - 2 * kLive);
    ASSERT_EQ(graph.num_edges(), static_cast<int64_t>(model.edges().size()))
        << "step " << step;
    ASSERT_TRUE(graph.IsAcyclic()) << "step " << step;
    for (TxnId u = first; u < next_txn; ++u) {
      std::vector<TxnId> targets = graph.OutTargets(u);
      std::sort(targets.begin(), targets.end());
      ASSERT_EQ(targets, model.OutTargets(u)) << "step " << step << " " << u;
      ASSERT_EQ(graph.HasInEdges(u), model.HasInEdges(u))
          << "step " << step << " " << u;
      const std::set<TxnId> reached = model.Closure(u);
      std::unordered_set<TxnId> candidates;
      std::vector<TxnId> expected;
      for (TxnId v = first; v < next_txn; ++v) {
        ASSERT_EQ(graph.HasEdge(u, v), model.edges().count({u, v}) > 0)
            << "step " << step << " " << u << "->" << v;
        const bool reaches = reached.count(v) > 0;
        ASSERT_EQ(graph.CanReach(u, v), u == v || reaches)
            << "step " << step << " " << u << "~>" << v;
        if (rng.Bernoulli(0.3)) {  // u itself included: never a hit
          candidates.insert(v);
          if (reaches) expected.push_back(v);
        }
      }
      std::vector<TxnId> hits = graph.ReachableAmong(u, candidates);
      std::sort(hits.begin(), hits.end());
      ASSERT_EQ(hits, expected) << "step " << step << " from " << u;
    }
  }
  // The churn exercised slot reuse: far more transactions passed through
  // than were ever live at once.
  EXPECT_GT(next_txn, 20 * kLive);
}

TEST(PrecedenceGraphDeathTest, SelfWaitChecked) {
  // No caller passes one: LockTable::Blockers stops before the requester,
  // and CBL's blockers sit at other sites.
  PrecedenceGraph graph;
  EXPECT_DEATH(graph.AddWaits(1, {2, 1}), "");
}

}  // namespace
}  // namespace gtpl::core
