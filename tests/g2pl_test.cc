// Protocol-level tests of g-2PL behaviors: grouping effects, MR1W
// concurrency, the read penalty, the read-only optimization, aging, and
// option plumbing.

#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "protocols/engine.h"
#include "protocols/sharded.h"

namespace gtpl::proto {
namespace {

SimConfig HotItemConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 10;
  config.latency = 100;
  config.workload.num_items = 1;
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 1;
  config.workload.read_prob = 0.0;
  config.measured_txns = 500;
  config.warmup_txns = 50;
  config.seed = 21;
  config.max_sim_time = 1'000'000'000;
  return config;
}

/// The paper's §3.2 worked example, as examples/quickstart runs it: three
/// clients each send one exclusive request for the one item at the same
/// instant; latency 2, processing 1.
SimConfig WorkedExampleConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 3;
  config.latency = 2;
  config.workload.num_items = 1;
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 1;
  config.workload.read_prob = 0.0;
  config.workload.min_think = 1;
  config.workload.max_think = 1;
  config.workload.min_idle = 1000;  // one transaction per client
  config.workload.max_idle = 1000;
  config.measured_txns = 3;
  config.warmup_txns = 0;
  config.seed = 7;
  config.obs_trace = true;
  config.max_sim_time = 20000;
  return config;
}

/// The run's kMsgSend events, in send order.
std::vector<obs::TraceEvent> Sends(const RunResult& result) {
  std::vector<obs::TraceEvent> sends;
  for (const obs::TraceEvent& event : result.obs_trace) {
    if (event.kind == obs::EventKind::kMsgSend) sends.push_back(event);
  }
  return sends;
}

// s-2PL routes each hand-off through the server (release, then grant: two
// hops). g-2PL's first window holds client1 alone (its request finds the
// item at the server); the second chains client2 -> client3, so that
// hand-off migrates client to client in one hop. g-2PL sends one message
// fewer and the last holder finishes two units sooner.
TEST(G2plTest, PaperWorkedExampleTimeline) {
  const RunResult s2pl = RunSimulation(WorkedExampleConfig(Protocol::kS2pl));
  const RunResult g2pl = RunSimulation(WorkedExampleConfig(Protocol::kG2pl));
  ASSERT_FALSE(s2pl.timed_out);
  ASSERT_FALSE(g2pl.timed_out);

  EXPECT_EQ(s2pl.network.messages, 9u);
  EXPECT_EQ(s2pl.response.min(), 5.0);
  EXPECT_EQ(s2pl.response.mean(), 10.0);
  EXPECT_EQ(s2pl.response.max(), 15.0);
  EXPECT_EQ(g2pl.network.messages, 8u);
  EXPECT_EQ(g2pl.response.min(), 5.0);
  EXPECT_DOUBLE_EQ(g2pl.response.mean(), 28.0 / 3.0);
  EXPECT_EQ(g2pl.response.max(), 13.0);

  const std::vector<obs::TraceEvent> s2pl_sends = Sends(s2pl);
  ASSERT_EQ(s2pl_sends.size(), 9u);
  for (const obs::TraceEvent& send : s2pl_sends) {
    EXPECT_TRUE(send.site == kServerSite || send.peer == kServerSite)
        << send.label << " from client" << send.site << " to client"
        << send.peer;
  }
  const std::vector<obs::TraceEvent> g2pl_sends = Sends(g2pl);
  ASSERT_EQ(g2pl_sends.size(), 8u);
  std::vector<obs::TraceEvent> migrations;
  for (const obs::TraceEvent& send : g2pl_sends) {
    if (send.site != kServerSite && send.peer != kServerSite) {
      migrations.push_back(send);
    }
  }
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].site, 2);
  EXPECT_EQ(migrations[0].peer, 3);
  EXPECT_EQ(migrations[0].label, "data");
  EXPECT_EQ(migrations[0].time - g2pl_sends[0].time, 10);
}

TEST(G2plTest, GroupingHalvesHotItemHandoffCost) {
  const RunResult s2pl = RunSimulation(HotItemConfig(Protocol::kS2pl));
  const RunResult g2pl = RunSimulation(HotItemConfig(Protocol::kG2pl));
  ASSERT_FALSE(s2pl.timed_out);
  ASSERT_FALSE(g2pl.timed_out);
  // Hand-off costs ~2L+think under s-2PL but ~L+think under g-2PL; with
  // deep queues the response ratio approaches (L+t)/(2L+t) ~ 0.5.
  EXPECT_LT(g2pl.response.mean(), 0.7 * s2pl.response.mean());
  EXPECT_GT(g2pl.mean_forward_list_length, 3.0);
}

TEST(G2plTest, FewerMessagesPerCommitOnHotItem) {
  const RunResult s2pl = RunSimulation(HotItemConfig(Protocol::kS2pl));
  const RunResult g2pl = RunSimulation(HotItemConfig(Protocol::kG2pl));
  const double s2pl_rate =
      static_cast<double>(s2pl.network.messages) / s2pl.commits;
  const double g2pl_rate =
      static_cast<double>(g2pl.network.messages) / g2pl.commits;
  EXPECT_LT(g2pl_rate, s2pl_rate);
}

TEST(G2plTest, ReadOnlyWorkloadPenalizedVersusS2pl) {
  SimConfig config = HotItemConfig(Protocol::kS2pl);
  config.workload.num_items = 10;
  config.workload.max_items_per_txn = 3;
  config.workload.read_prob = 1.0;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kG2pl;
  const RunResult g2pl = RunSimulation(config);
  // "The reads are penalized in the g-2PL system": requests are granted
  // only at window boundaries, while s-2PL shares read locks instantly.
  EXPECT_GT(g2pl.response.mean(), s2pl.response.mean());
  EXPECT_EQ(s2pl.aborts, 0);
}

TEST(G2plTest, ReadExpansionRemovesReadOnlyDeadlocksAndPenalty) {
  SimConfig config = HotItemConfig(Protocol::kG2pl);
  config.workload.num_items = 10;
  config.workload.max_items_per_txn = 3;
  config.workload.read_prob = 1.0;
  const RunResult plain = RunSimulation(config);
  config.g2pl.expand_read_groups = true;
  const RunResult expanded = RunSimulation(config);
  EXPECT_GT(plain.aborts, 0);      // read-only deadlocks exist (§3.3)
  EXPECT_EQ(expanded.aborts, 0);   // and the expansion eliminates them
  EXPECT_LT(expanded.response.mean(), plain.response.mean());
  EXPECT_GT(expanded.read_group_expansions, 0);
}

TEST(G2plTest, Mr1wSpeedsUpMixedWorkload) {
  SimConfig config = HotItemConfig(Protocol::kG2pl);
  config.workload.read_prob = 0.7;
  config.num_clients = 15;
  const RunResult with_mr1w = RunSimulation(config);
  config.g2pl.mr1w = false;
  const RunResult basic = RunSimulation(config);
  ASSERT_FALSE(with_mr1w.timed_out);
  ASSERT_FALSE(basic.timed_out);
  // The writer following a read group overlaps its execution with the
  // readers, so MR1W can only help.
  EXPECT_LE(with_mr1w.response.mean(), basic.response.mean() * 1.01);
}

TEST(G2plTest, BasicModeStillSerializable) {
  SimConfig config = HotItemConfig(Protocol::kG2pl);
  config.workload.num_items = 8;
  config.workload.max_items_per_txn = 4;
  config.workload.read_prob = 0.6;
  config.g2pl.mr1w = false;
  config.record_history = true;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST(G2plTest, ForwardListCapLimitsWindowLength) {
  SimConfig config = HotItemConfig(Protocol::kG2pl);
  config.g2pl.max_forward_list_length = 2;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_LE(result.mean_forward_list_length, 2.0);
}

TEST(G2plTest, OrderingPoliciesAllSerializable) {
  for (core::OrderingPolicy policy :
       {core::OrderingPolicy::kFifo, core::OrderingPolicy::kReadsFirst,
        core::OrderingPolicy::kWritesFirst}) {
    SimConfig config = HotItemConfig(Protocol::kG2pl);
    config.workload.num_items = 8;
    config.workload.max_items_per_txn = 4;
    config.workload.read_prob = 0.5;
    config.g2pl.ordering = policy;
    config.record_history = true;
    const RunResult result = RunSimulation(config);
    ASSERT_FALSE(result.timed_out)
        << "policy " << core::ToString(policy);
    std::string why;
    EXPECT_TRUE(HistoryIsSerializable(result.history, &why))
        << core::ToString(policy) << ": " << why;
  }
}

TEST(G2plTest, AgingThresholdKeepsSystemLive) {
  SimConfig config = HotItemConfig(Protocol::kG2pl);
  config.workload.num_items = 6;
  config.workload.max_items_per_txn = 4;
  config.workload.read_prob = 0.3;
  config.g2pl.aging_threshold = 2;  // aggressive member-abort path
  config.record_history = true;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST(G2plTest, DelayedAbortNoticeStillCorrect) {
  SimConfig config = HotItemConfig(Protocol::kG2pl);
  config.workload.num_items = 8;
  config.workload.max_items_per_txn = 4;
  config.workload.read_prob = 0.4;
  config.instant_abort_notice = false;
  config.record_history = true;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST(G2plTest, WindowManagerCountersExposed) {
  ShardedG2plEngine engine(HotItemConfig(Protocol::kG2pl));
  const RunResult result = engine.Run();
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(engine.window_manager().windows_dispatched(),
            result.windows_dispatched);
  EXPECT_GT(result.windows_dispatched, 0);
  EXPECT_GT(result.mean_forward_list_length, 1.0);
}

TEST(G2plTest, ZeroLatencyDegenerateCaseWorks) {
  SimConfig config = HotItemConfig(Protocol::kG2pl);
  config.latency = 0;
  const RunResult result = RunSimulation(config);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.commits, 500);
}

}  // namespace
}  // namespace gtpl::proto
