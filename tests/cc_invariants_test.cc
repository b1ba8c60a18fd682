// Property tests for the concurrency-control zoo (ISSUE 6): every engine in
// the cc registry — the legacy s-2PL/g-2PL/caching protocols and the new
// no-wait, wait-die, OCC, and ordered-release engines — is run over
// randomized workloads at 1-8 shards and must produce serializable,
// invariant-clean executions. On top of the generic sweep, the
// deadlock-handling claims behind each new policy are pinned directly:
// ordered acquisition makes the ordered policy abort-free, no-wait/wait-die
// turn contention into restarts instead of waits, and OCC restarts grow
// with the validation window.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "protocols/engine.h"
#include "protocols/invariants.h"
#include "rng/rng.h"

namespace gtpl::cc {
namespace {

proto::SimConfig RandomConfig(proto::Protocol protocol, uint64_t seed) {
  rng::Rng rng(seed * 7919 + 13);
  proto::SimConfig config;
  config.protocol = protocol;
  config.num_clients = 6 + static_cast<int32_t>(rng.Next64() % 12);
  config.latency = 1 + static_cast<SimTime>(rng.Next64() % 200);
  config.workload.num_items = 10 + static_cast<int32_t>(rng.Next64() % 15);
  config.workload.read_prob = 0.2 * static_cast<double>(rng.Next64() % 5);
  config.measured_txns = 250;
  config.warmup_txns = 25;
  config.seed = seed;
  config.record_history = true;
  config.obs_trace = true;
  // Restart-heavy policies (no-wait under write-hot workloads) need more
  // simulated time than the blocking protocols to commit the same count.
  config.max_sim_time = 4'000'000'000;
  return config;
}

proto::RunResult CheckRun(const proto::SimConfig& config) {
  proto::RunResult result = proto::RunSimulation(config);
  EXPECT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(proto::CheckProtocolInvariants(result.obs_trace, &why)) << why;
  EXPECT_TRUE(proto::HistoryIsSerializable(result.history, &why)) << why;
  return result;
}

// The headline sweep: every registered engine, randomized workloads, 1-8
// shards.
TEST(CcInvariantsTest, EveryEngineStaysSerializableAcrossShardCounts) {
  for (const EngineInfo& info : Engines()) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      for (int32_t servers : {1, 2, 3, 5, 8}) {
        proto::SimConfig config = RandomConfig(info.protocol, seed);
        config.num_servers = servers;
        SCOPED_TRACE(std::string(info.name) + " seed " + std::to_string(seed) +
                     " servers " + std::to_string(servers));
        const proto::RunResult result = CheckRun(config);
        EXPECT_GT(result.commits, 0);
      }
    }
  }
}

// Cross-server 2PC must actually engage for every registered engine: under
// 4 shards each one commits distributed transactions, and the commit rounds
// appear in the trace's protocol events (prepare before decision, a full
// round of yes votes per decision).
TEST(CcInvariantsTest, NewEnginesRunTwoPhaseCommitRounds) {
  for (const EngineInfo& info : Engines()) {
    SCOPED_TRACE(info.name);
    proto::SimConfig config = RandomConfig(info.protocol, 31);
    config.num_servers = 4;
    const proto::RunResult result = proto::RunSimulation(config);
    ASSERT_FALSE(result.timed_out);
    EXPECT_GT(result.cross_server_commits, 0);
    EXPECT_GE(result.commit_participants.mean(), 2.0);
    int64_t prepares = 0;
    int64_t yes_votes = 0;
    int64_t decisions = 0;
    for (const obs::TraceEvent& event : result.obs_trace) {
      prepares += event.kind == obs::EventKind::kPrepare;
      yes_votes += event.kind == obs::EventKind::kVote && event.flag;
      decisions += event.kind == obs::EventKind::kDecide;
    }
    EXPECT_GT(prepares, 0);
    EXPECT_GE(prepares, decisions);
    EXPECT_GE(yes_votes, decisions);
    EXPECT_GT(decisions, 0);
  }
}

// A write-hot workload on a tiny item set, where the blocking protocols see
// queueing and the restarting ones see aborts.
proto::SimConfig ContendedConfig(proto::Protocol protocol) {
  proto::SimConfig config;
  config.protocol = protocol;
  config.num_clients = 12;
  config.latency = 50;
  config.workload.num_items = 8;
  config.workload.read_prob = 0.0;
  config.measured_txns = 300;
  config.warmup_txns = 30;
  config.seed = 7;
  config.record_history = true;
  config.max_sim_time = 4'000'000'000;
  return config;
}

// The ordered-release policy's deadlock-freedom argument: it aborts only
// requests arriving out of item order, so when the workload acquires in
// sorted order it never aborts at all — at any shard count, including the
// 2PC path with release-at-prepare. (No-wait under the same workload keeps
// restarting on every conflict; that contrast is the A16 ablation.)
TEST(CcInvariantsTest, OrderedPolicyIsAbortFreeUnderSortedAccess) {
  const EngineInfo* ordered = FindEngine("ordered");
  ASSERT_NE(ordered, nullptr);
  for (int32_t servers : {1, 4}) {
    proto::SimConfig config = ContendedConfig(ordered->protocol);
    config.workload.sorted_access = true;
    config.num_servers = servers;
    SCOPED_TRACE("servers " + std::to_string(servers));
    const proto::RunResult result = CheckRun(config);
    EXPECT_GT(result.commits, 0);
    EXPECT_EQ(result.total_aborts, 0);
  }
}

// No-wait and wait-die really do trade waits for restarts: under the
// contended workload (unsorted access) both abort transactions, while
// detection-based s-2PL resolves almost everything by waiting.
TEST(CcInvariantsTest, RestartPoliciesAbortUnderContention) {
  for (const char* name : {"nowait", "waitdie", "woundwait", "occ"}) {
    const EngineInfo* info = FindEngine(name);
    ASSERT_NE(info, nullptr) << name;
    proto::SimConfig config = ContendedConfig(info->protocol);
    const proto::RunResult result = CheckRun(config);
    EXPECT_GT(result.commits, 0) << name;
    EXPECT_GT(result.total_aborts, 0) << name;
  }
}

// Determinism across the zoo: every registered engine inherits the
// simulator's bit-identical replay guarantee on a sharded group — same
// seed, same metrics, byte for byte.
TEST(CcInvariantsTest, NewEnginesAreDeterministic) {
  for (const EngineInfo& info : Engines()) {
    SCOPED_TRACE(info.name);
    proto::SimConfig config = RandomConfig(info.protocol, 5);
    config.num_servers = 3;
    const proto::RunResult a = proto::RunSimulation(config);
    const proto::RunResult b = proto::RunSimulation(config);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.response.mean(), b.response.mean());
    EXPECT_EQ(a.cross_server_commits, b.cross_server_commits);
  }
}

}  // namespace
}  // namespace gtpl::cc
