// Standing equivalence suite for the adaptive collection-window controller:
// `g2pl.adaptive_window` is read only by the g-2PL window manager, so every
// other engine runs bit-identically with it on, single-server and 4-way
// sharded. Adaptive g-2PL runs themselves are deterministic at both shard
// counts.

#include <gtest/gtest.h>

#include "protocols/engine.h"
#include "protocols/sharded.h"

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

/// Field-for-field equality of everything the protocol *does* — metrics,
/// event counts, traffic, the committed history, the whole observability
/// trace — and of the adaptive cap telemetry.
void ExpectSameResult(const RunResult& a, const RunResult& b) {
  ExpectSameWelford(a.response, b.response, "response");
  ExpectSameWelford(a.op_wait, b.op_wait, "op_wait");
  ExpectSameWelford(a.abort_age, b.abort_age, "abort_age");
  ExpectSameWelford(a.abort_held_items, b.abort_held_items,
                    "abort_held_items");
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.total_commits, b.total_commits);
  EXPECT_EQ(a.total_aborts, b.total_aborts);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.server_to_client, b.network.server_to_client);
  EXPECT_EQ(a.network.client_to_server, b.network.client_to_server);
  EXPECT_EQ(a.network.client_to_client, b.network.client_to_client);
  EXPECT_EQ(a.network.payload_units, b.network.payload_units);
  EXPECT_EQ(a.windows_dispatched, b.windows_dispatched);
  EXPECT_EQ(a.mean_forward_list_length, b.mean_forward_list_length);
  EXPECT_EQ(a.read_group_expansions, b.read_group_expansions);
  EXPECT_EQ(a.cross_server_commits, b.cross_server_commits);
  EXPECT_EQ(a.commit_participants.count(), b.commit_participants.count());
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    const CommittedTxn& x = a.history[i];
    const CommittedTxn& y = b.history[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.client, y.client);
    EXPECT_EQ(x.start_time, y.start_time);
    EXPECT_EQ(x.commit_time, y.commit_time);
    ASSERT_EQ(x.ops.size(), y.ops.size());
    for (size_t k = 0; k < x.ops.size(); ++k) {
      EXPECT_EQ(x.ops[k].item, y.ops[k].item);
      EXPECT_EQ(x.ops[k].mode, y.ops[k].mode);
      EXPECT_EQ(x.ops[k].version_read, y.ops[k].version_read);
      EXPECT_EQ(x.ops[k].version_written, y.ops[k].version_written);
    }
  }
  ASSERT_EQ(a.obs_trace.size(), b.obs_trace.size());
  for (size_t i = 0; i < a.obs_trace.size(); ++i) {
    ASSERT_TRUE(a.obs_trace[i] == b.obs_trace[i]) << "trace event " << i;
  }
  EXPECT_EQ(a.mean_effective_cap, b.mean_effective_cap);
  EXPECT_EQ(a.final_effective_cap, b.final_effective_cap);
  EXPECT_EQ(a.cap_increases, b.cap_increases);
  EXPECT_EQ(a.cap_decreases, b.cap_decreases);
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

TEST(AdaptiveEquivalenceTest, SwitchIsInertOutsideG2pl) {
  for (int32_t servers : {1, 4}) {
    for (Protocol protocol : {Protocol::kS2pl, Protocol::kC2pl,
                              Protocol::kCbl, Protocol::kO2pl}) {
      SimConfig config = BaseConfig(protocol);
      config.num_servers = servers;
      const RunResult baseline = RunSimulation(config);
      config.g2pl.adaptive_window = true;
      const RunResult switched = RunSimulation(config);
      ASSERT_FALSE(baseline.timed_out)
          << ToString(protocol) << " at " << servers << " server(s)";
      ExpectSameResult(baseline, switched);
    }
  }
}

TEST(AdaptiveEquivalenceTest, AdaptiveRunsAreDeterministic) {
  for (int32_t servers : {1, 4}) {
    SimConfig config = BaseConfig(Protocol::kG2pl);
    config.num_servers = servers;
    config.g2pl.adaptive_window = true;
    config.g2pl.aging_threshold = 2;
    const RunResult a = RunSimulation(config);
    const RunResult b = RunSimulation(config);
    ASSERT_FALSE(a.timed_out);
    ExpectSameResult(a, b);
    // The controller visibly adapted in this configuration (guards against
    // a silently disconnected feedback path).
    EXPECT_GT(a.cap_decreases, 0) << servers << " server(s)";
  }
}

}  // namespace
}  // namespace gtpl::proto
