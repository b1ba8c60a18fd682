// Unit tests for the transaction precedence graph (paper §3.3).

#include "core/precedence_graph.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace gtpl::core
