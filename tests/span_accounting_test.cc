// Span accounting (DESIGN.md §11): the five lifecycle phases of every
// committed transaction — lock wait, propagation, transmission+queueing,
// execution, commit — are exhaustive and disjoint, so they must sum to the
// transaction's measured response time *exactly*, for every protocol,
// sharded and unsharded, under pure propagation, jitter, and the finite-
// bandwidth link model.
//
// Also pinned here: sharded runs share ONE network/link model, so the link
// metrics (queue_delay_p99) reported by a sharded run equal the ones
// reconstructed from the merged per-message trace across all shards.

#include <string>

#include <gtest/gtest.h>

#include "protocols/config.h"
#include "protocols/engine.h"
#include "stats/histogram.h"

namespace gtpl::proto {
namespace {

SimConfig SmallConfig(Protocol protocol, int32_t servers = 1) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 12;
  config.num_servers = servers;
  config.workload.num_items = 25;
  config.latency = 250;
  config.measured_txns = 150;
  config.warmup_txns = 20;
  config.seed = 99;
  config.max_sim_time = 10'000'000'000;
  return config;
}

void ExpectSpansSumToResponse(SimConfig config, const std::string& what) {
  config.record_history = true;
  const RunResult result = RunSimulation(config);
  ASSERT_GT(result.history.size(), 0u) << what;
  for (const CommittedTxn& txn : result.history) {
    EXPECT_EQ(txn.span.Total(), txn.commit_time - txn.start_time)
        << what << " txn " << txn.id << " lock_wait " << txn.span.lock_wait
        << " propagation " << txn.span.propagation << " queueing "
        << txn.span.queueing << " execution " << txn.span.execution
        << " commit " << txn.span.commit;
    EXPECT_GE(txn.span.lock_wait, 0) << what << " txn " << txn.id;
    EXPECT_GE(txn.span.propagation, 0) << what << " txn " << txn.id;
    EXPECT_GE(txn.span.queueing, 0) << what << " txn " << txn.id;
    EXPECT_GE(txn.span.execution, 0) << what << " txn " << txn.id;
    EXPECT_GE(txn.span.commit, 0) << what << " txn " << txn.id;
    // The per-round commit sub-spans partition `commit`: both non-negative,
    // their sum never exceeds it (the residual covers WAL forces and the
    // coord ack leg), and both are 0 for commits that never ran 2PC.
    EXPECT_GE(txn.span.commit_prepare, 0) << what << " txn " << txn.id;
    EXPECT_GE(txn.span.commit_vote, 0) << what << " txn " << txn.id;
    EXPECT_GE(txn.span.CommitResidual(), 0)
        << what << " txn " << txn.id << " prepare " << txn.span.commit_prepare
        << " vote " << txn.span.commit_vote << " commit " << txn.span.commit;
    if (txn.commit_flights == -1) {
      EXPECT_EQ(txn.span.commit_prepare, 0) << what << " txn " << txn.id;
      EXPECT_EQ(txn.span.commit_vote, 0) << what << " txn " << txn.id;
    }
  }
}

TEST(SpanAccountingTest, AllProtocolsPurePropagation) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl, Protocol::kC2pl,
                            Protocol::kCbl, Protocol::kO2pl}) {
    ExpectSpansSumToResponse(SmallConfig(protocol), ToString(protocol));
  }
}

TEST(SpanAccountingTest, ShardedEngines) {
  ExpectSpansSumToResponse(SmallConfig(Protocol::kG2pl, 4), "g2pl x4");
  ExpectSpansSumToResponse(SmallConfig(Protocol::kS2pl, 4), "s2pl x4");
}

// The regression this file originally missed: the commit-phase span was one
// opaque number, so a variant could drop a WAN round without the table
// showing *which* round. The split must (a) hold the partition identity for
// every commit-path variant and (b) actually attribute both 2PC rounds on
// the classic path — a sharded run has committed transactions whose prepare
// and vote sub-spans are each at least one one-way latency.
TEST(SpanAccountingTest, CommitSubSpansForEveryCommitPath) {
  for (const CommitPathInfo& info : CommitPaths()) {
    for (Protocol protocol : {Protocol::kS2pl, Protocol::kOcc}) {
      SimConfig config = SmallConfig(protocol, 4);
      config.commit_path = info.path;
      ExpectSpansSumToResponse(config, std::string(ToString(protocol)) +
                                           " x4 commit=" + info.name);
    }
  }
  SimConfig coord = SmallConfig(Protocol::kS2pl, 4);
  coord.commit_path = CommitPath::kCoord;
  coord.server_latency = 10;  // remote coordination actually engages
  ExpectSpansSumToResponse(coord, "s2pl x4 coord remote");
}

TEST(SpanAccountingTest, ClassicShardedAttributesBothRounds) {
  SimConfig config = SmallConfig(Protocol::kS2pl, 4);
  config.record_history = true;
  const RunResult result = RunSimulation(config);
  int64_t both_rounds = 0;
  for (const CommittedTxn& txn : result.history) {
    if (txn.commit_flights < 0) continue;
    EXPECT_GE(txn.span.commit_prepare, config.latency) << "txn " << txn.id;
    EXPECT_GE(txn.span.commit_vote, config.latency) << "txn " << txn.id;
    ++both_rounds;
  }
  EXPECT_GT(both_rounds, 0);
}

TEST(SpanAccountingTest, WithJitter) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl}) {
    SimConfig config = SmallConfig(protocol);
    config.latency_jitter = 100;
    ExpectSpansSumToResponse(config,
                             std::string(ToString(protocol)) + " jitter");
  }
}

TEST(SpanAccountingTest, WithLinkModel) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl}) {
    for (int32_t servers : {1, 2}) {
      SimConfig config = SmallConfig(protocol, servers);
      config.link_bandwidth = 1.0;
      config.nic_queue = true;
      ExpectSpansSumToResponse(config, std::string(ToString(protocol)) +
                                           " bw x" + std::to_string(servers));
    }
  }
}

TEST(SpanAccountingTest, ShardedLinkMetricsMatchMergedTrace) {
  // Sharded engines route every message through one shared Network /
  // LinkModel, so the link metrics a sharded run reports are already the
  // cross-shard merge. Reconstruct the queueing-delay distribution from the
  // per-message trace (kMsgDeliver: d0 = sender queueing, d2 = receiver
  // queueing) and compare its p99 against the engine's queue_delay_p99.
  SimConfig config = SmallConfig(Protocol::kG2pl, 4);
  config.link_bandwidth = 1.0;
  config.nic_queue = true;
  config.obs_trace = true;
  const RunResult result = RunSimulation(config);
  ASSERT_GT(result.queue_delay_p99, 0.0);

  // Same shape as net::Network's internal histogram.
  stats::Histogram rebuilt(/*max_value=*/16384.0, /*num_buckets=*/1024);
  for (const obs::TraceEvent& event : result.obs_trace) {
    if (event.kind == obs::EventKind::kMsgDeliver) {
      rebuilt.Add(static_cast<double>(event.d0 + event.d2));
    }
  }
  ASSERT_GT(rebuilt.count(), 0);
  const int64_t engine_count = result.network.receiver_queue_delay.count();
  if (rebuilt.count() == engine_count) {
    EXPECT_EQ(rebuilt.Percentile(0.99), result.queue_delay_p99);
  } else {
    // The run can end with a handful of messages between downlink admission
    // (histogram update) and delivery (trace event); the tail may then
    // differ by those messages, but the distributions must still agree.
    EXPECT_NEAR(rebuilt.Percentile(0.99), result.queue_delay_p99,
                0.05 * result.queue_delay_p99);
  }
}

}  // namespace
}  // namespace gtpl::proto
