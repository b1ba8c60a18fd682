// Tests for engine-level extensions: heterogeneous latency, access skew
// and restart aging across shards, plus randomized reachability property
// checks for the precedence graph.

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/precedence_graph.h"
#include "protocols/config.h"
#include "protocols/engine.h"
#include "protocols/metrics.h"
#include "rng/rng.h"

namespace gtpl::proto {
namespace {

SimConfig MidConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 12;
  config.latency = 150;
  config.workload.num_items = 10;
  config.workload.read_prob = 0.4;
  config.measured_txns = 800;
  config.warmup_txns = 80;
  config.seed = 7;
  config.record_history = true;
  config.max_sim_time = 20'000'000'000;
  return config;
}

TEST(HeterogeneityTest, JitterKeepsInvariants) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl}) {
    SimConfig config = MidConfig(protocol);
    config.latency_jitter = 60;
    const RunResult result = RunSimulation(config);
    ASSERT_FALSE(result.timed_out) << ToString(protocol);
    std::string why;
    EXPECT_TRUE(HistoryIsSerializable(result.history, &why))
        << ToString(protocol) << ": " << why;
  }
}

TEST(HeterogeneityTest, SpreadKeepsInvariants) {
  for (Protocol protocol : {Protocol::kG2pl, Protocol::kCbl}) {
    SimConfig config = MidConfig(protocol);
    config.latency_spread = 0.8;
    const RunResult result = RunSimulation(config);
    ASSERT_FALSE(result.timed_out) << ToString(protocol);
    std::string why;
    EXPECT_TRUE(HistoryIsSerializable(result.history, &why))
        << ToString(protocol) << ": " << why;
  }
}

TEST(HeterogeneityTest, JitterIncreasesMeanResponse) {
  SimConfig config = MidConfig(Protocol::kS2pl);
  const RunResult flat = RunSimulation(config);
  config.latency_jitter = 150;  // mean latency grows by ~75
  const RunResult jittered = RunSimulation(config);
  EXPECT_GT(jittered.response.mean(), flat.response.mean());
}

TEST(HeterogeneityTest, DeterministicUnderJitter) {
  SimConfig config = MidConfig(Protocol::kG2pl);
  config.latency_jitter = 40;
  config.latency_spread = 0.5;
  const RunResult a = RunSimulation(config);
  const RunResult b = RunSimulation(config);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.response.mean(), b.response.mean());
}

TEST(SkewTest, ZipfWorkloadKeepsInvariantsAndLengthensForwardLists) {
  SimConfig uniform = MidConfig(Protocol::kG2pl);
  uniform.workload.num_items = 25;
  const RunResult flat = RunSimulation(uniform);
  SimConfig skewed = uniform;
  skewed.workload.zipf_theta = 1.3;
  const RunResult hot = RunSimulation(skewed);
  ASSERT_FALSE(hot.timed_out);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(hot.history, &why)) << why;
  // Hotter access concentrates requests: longer forward lists (the paper's
  // grouping-effect hypothesis).
  EXPECT_GT(hot.mean_forward_list_length, flat.mean_forward_list_length);
}

// Randomized differential test: PrecedenceGraph reachability against a
// brute-force Floyd-Warshall closure over random DAG mutations.
// Regression (ISSUE 4 satellite): the aging mechanism under sharding. The
// restart streak lives in the shared client lifecycle (client_base.cc):
// it grows on every abort notice — including aborts decided mid-2PC on a
// remote shard — and resets only at commit, so ShardedG2plEngine's
// SendRequest reads the same value on every shard. This pins that an aged client's
// streak actually changes victim selection on a 4-shard group, and that the
// outcome stays serializable and deterministic.
TEST(ShardedAgingTest, AgingChangesVictimsAndStaysCorrectAcrossShards) {
  SimConfig config = MidConfig(Protocol::kG2pl);
  config.num_servers = 4;
  config.workload.read_prob = 0.2;  // write-heavy: deep restart streaks
  SimConfig no_aging = config;
  config.g2pl.aging_threshold = 1;
  const RunResult aged = RunSimulation(config);
  ASSERT_FALSE(aged.timed_out);
  EXPECT_GT(aged.commits, 0);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(aged.history, &why)) << why;
  // Aging genuinely engaged: victim selection (and thus the run) differs
  // from the no-aging run of the identical configuration.
  const RunResult baseline = RunSimulation(no_aging);
  ASSERT_FALSE(baseline.timed_out);
  EXPECT_NE(aged.end_time, baseline.end_time);
  // And the aged run is reproducible bit for bit.
  const RunResult again = RunSimulation(config);
  EXPECT_EQ(aged.commits, again.commits);
  EXPECT_EQ(aged.aborts, again.aborts);
  EXPECT_EQ(aged.end_time, again.end_time);
  EXPECT_EQ(aged.events, again.events);
}

TEST(PrecedenceGraphPropertyTest, ReachabilityMatchesBruteForce) {
  rng::Rng rng(123);
  constexpr int kNodes = 24;
  for (int trial = 0; trial < 30; ++trial) {
    core::PrecedenceGraph graph;
    bool adj[kNodes][kNodes] = {};
    // Random forward edges (i < j keeps it acyclic), random kinds.
    for (int i = 0; i < kNodes; ++i) {
      for (int j = i + 1; j < kNodes; ++j) {
        if (rng.Bernoulli(0.12)) {
          graph.AddEdge(i, j,
                        rng.Bernoulli(0.5) ? core::kStructuralEdge
                                           : core::kRequestEdge);
          adj[i][j] = true;
        }
      }
    }
    // Random node removals (plain removal drops the node's paths).
    for (int r = 0; r < 4; ++r) {
      const int victim = static_cast<int>(rng.UniformInt(0, kNodes - 1));
      graph.RemoveTxn(victim);
      for (int k = 0; k < kNodes; ++k) {
        adj[victim][k] = false;
        adj[k][victim] = false;
      }
    }
    // Brute-force closure.
    bool reach[kNodes][kNodes];
    std::copy(&adj[0][0], &adj[0][0] + kNodes * kNodes, &reach[0][0]);
    for (int k = 0; k < kNodes; ++k) {
      for (int i = 0; i < kNodes; ++i) {
        for (int j = 0; j < kNodes; ++j) {
          reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
        }
      }
    }
    for (int i = 0; i < kNodes; ++i) {
      for (int j = 0; j < kNodes; ++j) {
        if (i == j) continue;
        EXPECT_EQ(graph.CanReach(i, j), reach[i][j])
            << "trial " << trial << " " << i << "->" << j;
      }
    }
    EXPECT_TRUE(graph.IsAcyclic());
  }
}

// Contraction preserves reachability among the surviving nodes.
TEST(PrecedenceGraphPropertyTest, ContractionPreservesReachability) {
  rng::Rng rng(321);
  constexpr int kNodes = 18;
  for (int trial = 0; trial < 30; ++trial) {
    core::PrecedenceGraph graph;
    bool adj[kNodes][kNodes] = {};
    for (int i = 0; i < kNodes; ++i) {
      for (int j = i + 1; j < kNodes; ++j) {
        if (rng.Bernoulli(0.15)) {
          graph.AddEdge(i, j, core::kStructuralEdge);
          adj[i][j] = true;
        }
      }
    }
    bool reach[kNodes][kNodes];
    std::copy(&adj[0][0], &adj[0][0] + kNodes * kNodes, &reach[0][0]);
    for (int k = 0; k < kNodes; ++k) {
      for (int i = 0; i < kNodes; ++i) {
        for (int j = 0; j < kNodes; ++j) {
          reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
        }
      }
    }
    std::unordered_set<int> contracted;
    for (int r = 0; r < 5; ++r) {
      const int victim = static_cast<int>(rng.UniformInt(0, kNodes - 1));
      if (!contracted.insert(victim).second) continue;
      graph.Contract(victim);
    }
    for (int i = 0; i < kNodes; ++i) {
      if (contracted.count(i) > 0) continue;
      for (int j = 0; j < kNodes; ++j) {
        if (i == j || contracted.count(j) > 0) continue;
        EXPECT_EQ(graph.CanReach(i, j), reach[i][j])
            << "trial " << trial << " " << i << "->" << j;
      }
    }
    EXPECT_TRUE(graph.IsAcyclic());
  }
}

}  // namespace
}  // namespace gtpl::proto
