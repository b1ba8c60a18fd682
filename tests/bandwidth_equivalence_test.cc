// Standing equivalence suite for the link-level transport (ISSUE 3
// acceptance): with link_bandwidth = 0 (infinite — the paper's model) the
// engines must reproduce the pure-propagation results *bit for bit* —
// every metric, the event counts, the network counters, the committed
// history, and the whole observability trace — whatever other options are
// set. Enabling nic_queue alone must be a complete no-op; only a finite
// bandwidth may change anything. This pins the degenerate-case guarantee
// DESIGN.md §9 promises, across every protocol and the option corners that
// exercise different code paths.

#include <gtest/gtest.h>

#include "protocols/engine.h"

namespace gtpl::proto {
namespace {

void ExpectSameWelford(const stats::Welford& a, const stats::Welford& b,
                       const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void ExpectSameResult(const RunResult& base, const RunResult& linked) {
  ExpectSameWelford(base.response, linked.response, "response");
  ExpectSameWelford(base.op_wait, linked.op_wait, "op_wait");
  ExpectSameWelford(base.abort_age, linked.abort_age, "abort_age");
  ExpectSameWelford(base.abort_held_items, linked.abort_held_items,
                    "abort_held_items");
  EXPECT_EQ(base.commits, linked.commits);
  EXPECT_EQ(base.aborts, linked.aborts);
  EXPECT_EQ(base.total_commits, linked.total_commits);
  EXPECT_EQ(base.total_aborts, linked.total_aborts);
  EXPECT_EQ(base.events, linked.events);
  EXPECT_EQ(base.end_time, linked.end_time);
  EXPECT_EQ(base.timed_out, linked.timed_out);
  EXPECT_EQ(base.network.messages, linked.network.messages);
  EXPECT_EQ(base.network.server_to_client, linked.network.server_to_client);
  EXPECT_EQ(base.network.client_to_server, linked.network.client_to_server);
  EXPECT_EQ(base.network.client_to_client, linked.network.client_to_client);
  EXPECT_EQ(base.network.server_to_server, linked.network.server_to_server);
  EXPECT_EQ(base.network.payload_units, linked.network.payload_units);
  EXPECT_EQ(base.network.transmission_ticks,
            linked.network.transmission_ticks);
  ExpectSameWelford(base.network.sender_queue_delay,
                    linked.network.sender_queue_delay, "sender_queue_delay");
  ExpectSameWelford(base.network.receiver_queue_delay,
                    linked.network.receiver_queue_delay,
                    "receiver_queue_delay");
  EXPECT_EQ(base.max_link_utilization, linked.max_link_utilization);
  EXPECT_EQ(base.queue_delay_p99, linked.queue_delay_p99);
  EXPECT_EQ(base.windows_dispatched, linked.windows_dispatched);
  EXPECT_EQ(base.mean_forward_list_length, linked.mean_forward_list_length);
  EXPECT_EQ(base.read_group_expansions, linked.read_group_expansions);
  EXPECT_EQ(base.cross_server_commits, linked.cross_server_commits);
  EXPECT_EQ(base.wal_appends, linked.wal_appends);
  EXPECT_EQ(base.wal_forces, linked.wal_forces);
  EXPECT_EQ(base.wal_retained, linked.wal_retained);
  ASSERT_EQ(base.history.size(), linked.history.size());
  for (size_t i = 0; i < base.history.size(); ++i) {
    const CommittedTxn& a = base.history[i];
    const CommittedTxn& b = linked.history[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.client, b.client);
    EXPECT_EQ(a.start_time, b.start_time);
    EXPECT_EQ(a.commit_time, b.commit_time);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t k = 0; k < a.ops.size(); ++k) {
      EXPECT_EQ(a.ops[k].item, b.ops[k].item);
      EXPECT_EQ(a.ops[k].mode, b.ops[k].mode);
      EXPECT_EQ(a.ops[k].version_read, b.ops[k].version_read);
      EXPECT_EQ(a.ops[k].version_written, b.ops[k].version_written);
    }
  }
  ASSERT_EQ(base.obs_trace.size(), linked.obs_trace.size());
  for (size_t i = 0; i < base.obs_trace.size(); ++i) {
    ASSERT_TRUE(base.obs_trace[i] == linked.obs_trace[i])
        << "trace event " << i;
  }
}

SimConfig BaseConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 12;
  config.latency = 50;
  config.workload.num_items = 15;
  config.measured_txns = 400;
  config.warmup_txns = 40;
  config.seed = 11;
  config.record_history = true;
  config.obs_trace = true;
  config.max_sim_time = 2'000'000'000;
  return config;
}

// Runs `config` as-is and with the link layer armed at infinite bandwidth
// (nic_queue on, bandwidth 0); the two must be indistinguishable.
void RunEquivalence(const SimConfig& config) {
  SimConfig with_link = config;
  with_link.nic_queue = true;
  const RunResult base = RunSimulation(config);
  ASSERT_FALSE(base.timed_out);
  const RunResult linked = RunSimulation(with_link);
  ExpectSameResult(base, linked);
}

TEST(BandwidthEquivalenceTest, G2plDefault) {
  RunEquivalence(BaseConfig(Protocol::kG2pl));
}

TEST(BandwidthEquivalenceTest, S2plDefault) {
  RunEquivalence(BaseConfig(Protocol::kS2pl));
}

TEST(BandwidthEquivalenceTest, C2plDefault) {
  RunEquivalence(BaseConfig(Protocol::kC2pl));
}

TEST(BandwidthEquivalenceTest, CblDefault) {
  RunEquivalence(BaseConfig(Protocol::kCbl));
}

TEST(BandwidthEquivalenceTest, O2plDefault) {
  RunEquivalence(BaseConfig(Protocol::kO2pl));
}

TEST(BandwidthEquivalenceTest, G2plMr1wOff) {
  SimConfig config = BaseConfig(Protocol::kG2pl);
  config.g2pl.mr1w = false;
  RunEquivalence(config);
}

TEST(BandwidthEquivalenceTest, G2plReadGroupExpansion) {
  SimConfig config = BaseConfig(Protocol::kG2pl);
  config.g2pl.expand_read_groups = true;
  config.workload.read_prob = 0.8;
  RunEquivalence(config);
}

TEST(BandwidthEquivalenceTest, G2plWindowCapAndAging) {
  SimConfig config = BaseConfig(Protocol::kG2pl);
  config.g2pl.max_forward_list_length = 3;
  config.g2pl.aging_threshold = 2;
  RunEquivalence(config);
}

// Jitter draws come from a dedicated RNG stream, so arming the link layer
// must not perturb them even under heterogeneous latency.
TEST(BandwidthEquivalenceTest, G2plHeterogeneousLatency) {
  SimConfig config = BaseConfig(Protocol::kG2pl);
  config.latency_jitter = 20;
  config.latency_spread = 0.5;
  RunEquivalence(config);
}

TEST(BandwidthEquivalenceTest, G2plDelayedAbortNotice) {
  SimConfig config = BaseConfig(Protocol::kG2pl);
  config.instant_abort_notice = false;
  RunEquivalence(config);
}

TEST(BandwidthEquivalenceTest, ShardedFourServers) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl}) {
    SimConfig config = BaseConfig(protocol);
    config.num_servers = 4;
    RunEquivalence(config);
  }
}

// Finite bandwidth is outside the equivalence envelope but must still be
// fully deterministic, including on the sharded 2PC paths.
TEST(BandwidthEquivalenceTest, FiniteBandwidthShardedDeterministic) {
  SimConfig config = BaseConfig(Protocol::kG2pl);
  config.num_servers = 4;
  config.link_bandwidth = 1.0;
  config.nic_queue = true;
  config.cross_traffic_load = 0.3;
  const RunResult a = RunSimulation(config);
  const RunResult b = RunSimulation(config);
  ExpectSameResult(a, b);
}

}  // namespace
}  // namespace gtpl::proto
