// Property tests for the protocol-invariant layer (ISSUE 2): over
// randomized workloads and 1-8 shards, the global precedence graph stays
// acyclic, every pair of transactions appears in the same order in every
// forward list they share, and a writer never releases its update before
// all reader releases of the preceding read group arrived (MR1W
// discipline) — in single-server and sharded runs alike. The checkers
// themselves, lease coherence included, are also exercised on synthetic
// violating trace streams, so a regression in the checkers cannot silently
// hollow out the suite.

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
  std::string why;
  EXPECT_TRUE(CheckProtocolInvariants(result.obs_trace, &why)) << why;
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

TEST(ShardingInvariantsTest, G2plReadExpansionAcrossShardCounts) {
  for (int32_t servers : {2, 4, 8}) {
    SimConfig config = RandomConfig(Protocol::kG2pl, 17);
    config.num_servers = servers;
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
    int64_t reader_releases = 0;
    int64_t writer_releases = 0;
    for (const obs::TraceEvent& event : result.obs_trace) {
      reader_releases += event.kind == obs::EventKind::kReaderRelease;
      writer_releases += event.kind == obs::EventKind::kWriterRelease;
    }
    EXPECT_GT(reader_releases, 0) << "servers " << servers;
    EXPECT_GT(writer_releases, 0) << "servers " << servers;
    std::string why;
    EXPECT_TRUE(CheckProtocolInvariants(result.obs_trace, &why)) << why;
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

// ---------------------------------------------------------------------------
// Checker self-tests on synthetic trace streams. Each violating stream breaks
// exactly one invariant, so CheckProtocolInvariants' verdict is that rule's.
// ---------------------------------------------------------------------------

obs::TraceEvent Event(obs::EventKind kind, TxnId txn, ItemId item) {
  obs::TraceEvent event;
  event.kind = kind;
  event.txn = txn;
  event.item = item;
  return event;
}

obs::TraceEvent Window(ItemId item,
                       std::vector<obs::FlEntrySnapshot> entries) {
  obs::TraceEvent event =
      Event(obs::EventKind::kWindowDispatch, kInvalidTxn, item);
  event.entries = std::move(entries);
  return event;
}

obs::TraceEvent Lease(obs::EventKind kind, ItemId item, SiteId site,
                      bool exclusive = false) {
  obs::TraceEvent event = Event(kind, kInvalidTxn, item);
  event.site = site;
  event.flag = exclusive;
  return event;
}

TEST(InvariantCheckersTest, DetectsCyclicGraphAudit) {
  obs::TraceEvent good;
  good.kind = obs::EventKind::kGraphCheck;
  good.flag = true;
  obs::TraceEvent bad = good;
  bad.flag = false;
  std::string why;
  EXPECT_TRUE(CheckProtocolInvariants({good}, &why));
  EXPECT_FALSE(CheckProtocolInvariants({good, bad}, &why));
  EXPECT_NE(why.find("cyclic"), std::string::npos);
  EXPECT_NE(why.find("kind=graph_check"), std::string::npos) << why;
}

TEST(InvariantCheckersTest, DetectsOppositeForwardListOrders) {
  const std::vector<obs::TraceEvent> consistent = {
      Window(1, {{false, {1}}, {false, {2}}}),
      Window(2, {{false, {1}}, {false, {2}}}),
  };
  const std::vector<obs::TraceEvent> flipped = {
      Window(1, {{false, {1}}, {false, {2}}}),
      Window(2, {{false, {2}}, {false, {1}}}),
  };
  std::string why;
  EXPECT_TRUE(CheckProtocolInvariants(consistent, &why));
  EXPECT_FALSE(CheckProtocolInvariants(flipped, &why));
  EXPECT_NE(why.find("opposite orders"), std::string::npos) << why;
}

TEST(InvariantCheckersTest, ReadGroupCoMembershipOrdersNeitherWay) {
  // {1,2} share a read group on item 1 but are strictly ordered on item 2:
  // compatible. A strict order on item 3 opposing item 2's order is not.
  const std::vector<obs::TraceEvent> compatible = {
      Window(1, {{true, {1, 2}}, {false, {3}}}),
      Window(2, {{false, {1}}, {false, {2}}}),
  };
  std::string why;
  EXPECT_TRUE(CheckProtocolInvariants(compatible, &why));
  const std::vector<obs::TraceEvent> contradictory = {
      Window(2, {{false, {1}}, {false, {2}}}),
      Window(3, {{false, {2}}, {false, {1}}}),
  };
  EXPECT_FALSE(CheckProtocolInvariants(contradictory, &why));
}

TEST(InvariantCheckersTest, DetectsEarlyWriterRelease) {
  std::vector<obs::TraceEvent> events = {
      Window(5, {{true, {1, 2}}, {false, {9}}}),
  };
  const obs::TraceEvent release = Event(obs::EventKind::kReaderRelease, 9, 5);
  const obs::TraceEvent writer_release =
      Event(obs::EventKind::kWriterRelease, 9, 5);
  // Only one of two reader releases arrived: violation.
  std::vector<obs::TraceEvent> early = events;
  early.push_back(release);
  early.push_back(writer_release);
  std::string why;
  EXPECT_FALSE(CheckProtocolInvariants(early, &why));
  EXPECT_NE(why.find("1/2"), std::string::npos);
  // Both arrived first: fine.
  std::vector<obs::TraceEvent> ok = events;
  ok.push_back(release);
  ok.push_back(release);
  ok.push_back(writer_release);
  EXPECT_TRUE(CheckProtocolInvariants(ok, &why)) << why;
}

// Lease coherence, one stream per rule. Sites 1-3 are clients; item 7.
TEST(InvariantCheckersTest, DetectsLeaseGrantWhileRevokeOutstanding) {
  const std::vector<obs::TraceEvent> events = {
      Lease(obs::EventKind::kLeaseGrant, 7, 1),
      Lease(obs::EventKind::kLeaseRevoke, 7, 1),
      Lease(obs::EventKind::kLeaseGrant, 7, 2),  // before site 1 released
  };
  std::string why;
  EXPECT_FALSE(CheckProtocolInvariants(events, &why));
  EXPECT_NE(why.find("revoke is outstanding"), std::string::npos) << why;
}

TEST(InvariantCheckersTest, DetectsLeaseGrantBesideForeignWriteLease) {
  const std::vector<obs::TraceEvent> events = {
      Lease(obs::EventKind::kLeaseGrant, 7, 1, /*exclusive=*/true),
      Lease(obs::EventKind::kLeaseGrant, 7, 2),
  };
  std::string why;
  EXPECT_FALSE(CheckProtocolInvariants(events, &why));
  EXPECT_NE(why.find("foreign write lease"), std::string::npos) << why;
}

TEST(InvariantCheckersTest, DetectsWriteLeaseBesideForeignReadLease) {
  const std::vector<obs::TraceEvent> events = {
      Lease(obs::EventKind::kLeaseGrant, 7, 1),
      Lease(obs::EventKind::kLeaseGrant, 7, 2, /*exclusive=*/true),
  };
  std::string why;
  EXPECT_FALSE(CheckProtocolInvariants(events, &why));
  EXPECT_NE(why.find("foreign read lease"), std::string::npos) << why;
}

TEST(InvariantCheckersTest, DetectsRevokeToSiteHoldingNoLease) {
  const std::vector<obs::TraceEvent> events = {
      Lease(obs::EventKind::kLeaseGrant, 7, 1),
      Lease(obs::EventKind::kLeaseRevoke, 7, 2),
  };
  std::string why;
  EXPECT_FALSE(CheckProtocolInvariants(events, &why));
  EXPECT_NE(why.find("holding no lease"), std::string::npos) << why;
  EXPECT_NE(why.find("kind=lease_revoke"), std::string::npos) << why;
}

// Grant -> revoke -> release -> grant, with two readers sharing the item and
// a reader upgrading to the write lease once it is the only holder.
TEST(InvariantCheckersTest, AcceptsLegalLeaseLifecycle) {
  const std::vector<obs::TraceEvent> events = {
      Lease(obs::EventKind::kLeaseGrant, 7, 1),
      Lease(obs::EventKind::kLeaseGrant, 7, 2),
      Lease(obs::EventKind::kLeaseRevoke, 7, 2),
      Lease(obs::EventKind::kLeaseRelease, 7, 2),
      Lease(obs::EventKind::kLeaseGrant, 7, 1, /*exclusive=*/true),
      Lease(obs::EventKind::kLeaseRevoke, 7, 1),
      Lease(obs::EventKind::kLeaseRelease, 7, 1),
      Lease(obs::EventKind::kLeaseGrant, 7, 2, /*exclusive=*/true),
  };
  std::string why;
  EXPECT_TRUE(CheckProtocolInvariants(events, &why)) << why;
}

// The checkers skip every kind they do not read. The noise below carries
// the fields a misread would trip on — a false flag (a failed graph audit),
// forward lists in opposite orders, a site holding no lease (a stray
// revoke), and the writer's (txn, item) pair (an extra reader release that
// would mask the violation) — around one MR1W violation.
TEST(InvariantCheckersTest, FindsViolationHiddenAmongOtherKinds) {
  const std::vector<obs::FlEntrySnapshot> forward = {{false, {1}},
                                                     {false, {2}}};
  const std::vector<obs::FlEntrySnapshot> backward = {{false, {2}},
                                                      {false, {1}}};
  std::vector<obs::TraceEvent> noise;
  for (obs::EventKind kind :
       {obs::EventKind::kTxnBegin, obs::EventKind::kTxnCommit,
        obs::EventKind::kTxnAbort, obs::EventKind::kLockRequest,
        obs::EventKind::kLockGrant, obs::EventKind::kLockRelease,
        obs::EventKind::kFlHandoff, obs::EventKind::kPrepare,
        obs::EventKind::kVote, obs::EventKind::kDecide,
        obs::EventKind::kMsgSend, obs::EventKind::kMsgDeliver}) {
    obs::TraceEvent event = Event(kind, 9, 5);
    event.site = 3;
    event.entries = noise.size() % 2 == 0 ? forward : backward;
    noise.push_back(event);
  }
  std::string why;
  EXPECT_TRUE(CheckProtocolInvariants(noise, &why)) << why;
  std::vector<obs::TraceEvent> events = noise;
  events.push_back(Window(5, {{true, {1, 2}}, {false, {9}}}));
  events.insert(events.end(), noise.begin(), noise.end());
  events.push_back(Event(obs::EventKind::kReaderRelease, 9, 5));
  events.insert(events.end(), noise.begin(), noise.end());
  events.push_back(Event(obs::EventKind::kWriterRelease, 9, 5));
  events.insert(events.end(), noise.begin(), noise.end());
  EXPECT_FALSE(CheckProtocolInvariants(events, &why));
  EXPECT_NE(why.find("1/2"), std::string::npos) << why;
  EXPECT_NE(why.find("kind=writer_release"), std::string::npos) << why;
}

}  // namespace
}  // namespace gtpl::proto
