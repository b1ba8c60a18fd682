// Property tests for the protocol-invariant layer (ISSUE 2): over
// randomized workloads and 1-8 shards, the global precedence graph stays
// acyclic, every pair of transactions appears in the same order in every
// forward list they share, and a writer never releases its update before
// all reader releases of the preceding read group arrived (MR1W
// discipline) — in single-server and sharded runs alike. The checkers
// themselves are also exercised on synthetic violating streams, so a
// regression in the checkers cannot silently hollow out the suite.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "protocols/engine.h"
#include "protocols/invariants.h"
#include "protocols/sharded.h"
#include "rng/rng.h"

namespace gtpl::proto {
namespace {

SimConfig RandomConfig(Protocol protocol, uint64_t seed) {
  rng::Rng rng(seed * 7919 + 13);
  SimConfig config;
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
  config.max_sim_time = 2'000'000'000;
  return config;
}

void CheckRun(const SimConfig& config) {
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  const std::vector<ProtocolEvent> events =
      ProtocolEventsFromTrace(result.obs_trace);
  std::string why;
  EXPECT_TRUE(CheckAcyclicity(events, &why)) << why;
  EXPECT_TRUE(CheckForwardListOrderConsistency(events, &why)) << why;
  EXPECT_TRUE(CheckMr1wDiscipline(events, &why)) << why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST(ShardingInvariantsTest, G2plRandomizedWorkloadsAcrossShardCounts) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int32_t servers : {1, 2, 3, 5, 8}) {
      SimConfig config = RandomConfig(Protocol::kG2pl, seed);
      config.num_servers = servers;
      SCOPED_TRACE("seed " + std::to_string(seed) + " servers " +
                   std::to_string(servers));
      CheckRun(config);
    }
  }
}

TEST(ShardingInvariantsTest, G2plRangeRoutingAndExpansion) {
  for (int32_t servers : {2, 4, 8}) {
    SimConfig config = RandomConfig(Protocol::kG2pl, 17);
    config.num_servers = servers;
    config.shard_routing = ShardRouting::kRange;
    config.workload.read_prob = 0.8;
    config.g2pl.expand_read_groups = true;
    SCOPED_TRACE("servers " + std::to_string(servers));
    CheckRun(config);
  }
}

TEST(ShardingInvariantsTest, S2plShardedHistoriesStaySerializable) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int32_t servers : {1, 4, 8}) {
      SimConfig config = RandomConfig(Protocol::kS2pl, seed);
      config.num_servers = servers;
      SCOPED_TRACE("seed " + std::to_string(seed) + " servers " +
                   std::to_string(servers));
      CheckRun(config);
    }
  }
}

// The MR1W discipline check must not pass vacuously: under a write-heavy
// mixed workload the event stream has to contain real read-group/writer
// interactions, i.e. reader releases arriving at writers and writers
// releasing updates.
TEST(ShardingInvariantsTest, Mr1wDisciplineIsExercised) {
  for (int32_t servers : {1, 4}) {
    SimConfig config = RandomConfig(Protocol::kG2pl, 23);
    config.num_servers = servers;
    config.workload.read_prob = 0.6;
    const RunResult result = RunSimulation(config);
    ASSERT_FALSE(result.timed_out);
    const std::vector<ProtocolEvent> events =
        ProtocolEventsFromTrace(result.obs_trace);
    int64_t reader_releases = 0;
    int64_t writer_releases = 0;
    for (const ProtocolEvent& event : events) {
      reader_releases +=
          event.kind == ProtocolEventKind::kReaderReleaseArrived;
      writer_releases +=
          event.kind == ProtocolEventKind::kWriterUpdateReleased;
    }
    EXPECT_GT(reader_releases, 0) << "servers " << servers;
    EXPECT_GT(writer_releases, 0) << "servers " << servers;
    std::string why;
    EXPECT_TRUE(CheckMr1wDiscipline(events, &why)) << why;
  }
}

// Cross-server commits must actually happen under sharding and be visible
// in the 2PC event stream: every commit decision is preceded by a full
// round of yes votes for that transaction.
TEST(ShardingInvariantsTest, TwoPhaseCommitRoundsAreRecorded) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl}) {
    SimConfig config = RandomConfig(protocol, 31);
    config.num_servers = 4;
    const RunResult result = RunSimulation(config);
    ASSERT_FALSE(result.timed_out);
    EXPECT_GT(result.cross_server_commits, 0);
    EXPECT_GE(result.commit_participants.mean(), 2.0);
    int64_t prepares = 0;
    int64_t yes_votes = 0;
    int64_t decisions = 0;
    for (const ProtocolEvent& event :
         ProtocolEventsFromTrace(result.obs_trace)) {
      prepares += event.kind == ProtocolEventKind::kPrepareArrived;
      yes_votes +=
          event.kind == ProtocolEventKind::kVoteArrived && event.flag;
      decisions += event.kind == ProtocolEventKind::kCommitDecisionArrived;
    }
    EXPECT_GT(prepares, 0);
    EXPECT_GE(prepares, decisions);
    EXPECT_GE(yes_votes, decisions);
    EXPECT_GT(decisions, 0);
  }
}

// ---------------------------------------------------------------------------
// Checker self-tests on synthetic streams
// ---------------------------------------------------------------------------

ProtocolEvent Window(ItemId item,
                     std::vector<obs::FlEntrySnapshot> entries) {
  ProtocolEvent event;
  event.kind = ProtocolEventKind::kWindowDispatched;
  event.item = item;
  event.entries = std::move(entries);
  return event;
}

TEST(InvariantCheckersTest, DetectsCyclicGraphAudit) {
  ProtocolEvent good;
  good.kind = ProtocolEventKind::kGraphCheck;
  good.flag = true;
  ProtocolEvent bad = good;
  bad.flag = false;
  std::string why;
  EXPECT_TRUE(CheckAcyclicity({good}, &why));
  EXPECT_FALSE(CheckAcyclicity({good, bad}, &why));
  EXPECT_NE(why.find("cyclic"), std::string::npos);
}

TEST(InvariantCheckersTest, DetectsOppositeForwardListOrders) {
  const std::vector<ProtocolEvent> consistent = {
      Window(1, {{false, {1}}, {false, {2}}}),
      Window(2, {{false, {1}}, {false, {2}}}),
  };
  const std::vector<ProtocolEvent> flipped = {
      Window(1, {{false, {1}}, {false, {2}}}),
      Window(2, {{false, {2}}, {false, {1}}}),
  };
  std::string why;
  EXPECT_TRUE(CheckForwardListOrderConsistency(consistent, &why));
  EXPECT_FALSE(CheckForwardListOrderConsistency(flipped, &why));
}

TEST(InvariantCheckersTest, ReadGroupCoMembershipOrdersNeitherWay) {
  // {1,2} share a read group on item 1 but are strictly ordered on item 2:
  // compatible. A strict order on item 3 opposing item 2's order is not.
  const std::vector<ProtocolEvent> compatible = {
      Window(1, {{true, {1, 2}}, {false, {3}}}),
      Window(2, {{false, {1}}, {false, {2}}}),
  };
  std::string why;
  EXPECT_TRUE(CheckForwardListOrderConsistency(compatible, &why));
  const std::vector<ProtocolEvent> contradictory = {
      Window(2, {{false, {1}}, {false, {2}}}),
      Window(3, {{false, {2}}, {false, {1}}}),
  };
  EXPECT_FALSE(CheckForwardListOrderConsistency(contradictory, &why));
}

TEST(InvariantCheckersTest, DetectsEarlyWriterRelease) {
  std::vector<ProtocolEvent> events = {
      Window(5, {{true, {1, 2}}, {false, {9}}}),
  };
  ProtocolEvent release;
  release.kind = ProtocolEventKind::kReaderReleaseArrived;
  release.txn = 9;
  release.item = 5;
  ProtocolEvent writer_release;
  writer_release.kind = ProtocolEventKind::kWriterUpdateReleased;
  writer_release.txn = 9;
  writer_release.item = 5;
  // Only one of two reader releases arrived: violation.
  std::vector<ProtocolEvent> early = events;
  early.push_back(release);
  early.push_back(writer_release);
  std::string why;
  EXPECT_FALSE(CheckMr1wDiscipline(early, &why));
  EXPECT_NE(why.find("1/2"), std::string::npos);
  // Both arrived first: fine.
  std::vector<ProtocolEvent> ok = events;
  ok.push_back(release);
  ok.push_back(release);
  ok.push_back(writer_release);
  EXPECT_TRUE(CheckMr1wDiscipline(ok, &why)) << why;
}

}  // namespace
}  // namespace gtpl::proto
