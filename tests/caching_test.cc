// Protocol-level tests of the caching extensions (c-2PL, CBL, O2PL).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"
#include "obs/trace.h"
#include "protocols/commit.h"
#include "protocols/engine.h"

namespace gtpl::proto {
namespace {

SimConfig BaseConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 10;
  config.latency = 100;
  config.workload.num_items = 10;
  config.workload.read_prob = 0.8;
  config.measured_txns = 600;
  config.warmup_txns = 60;
  config.seed = 33;
  config.max_sim_time = 1'000'000'000;
  return config;
}

double MessagesPerCommit(const RunResult& result) {
  return static_cast<double>(result.network.messages) /
         static_cast<double>(result.commits);
}

TEST(CachingTest, C2plMatchesS2plRounds) {
  // Caching 2PL saves payload bytes, not rounds: in the latency-dominated
  // model its response time tracks s-2PL closely.
  SimConfig config = BaseConfig(Protocol::kS2pl);
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kC2pl;
  const RunResult c2pl = RunSimulation(config);
  ASSERT_FALSE(c2pl.timed_out);
  EXPECT_NEAR(c2pl.response.mean() / s2pl.response.mean(), 1.0, 0.1);
}

TEST(CachingTest, CblSavesMessagesOnReadMostlyWorkload) {
  SimConfig config = BaseConfig(Protocol::kS2pl);
  config.workload.read_prob = 0.95;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kCbl;
  const RunResult cbl = RunSimulation(config);
  ASSERT_FALSE(cbl.timed_out);
  // Cached read permissions avoid request/grant rounds entirely.
  EXPECT_LT(MessagesPerCommit(cbl), MessagesPerCommit(s2pl));
  EXPECT_LT(cbl.response.mean(), s2pl.response.mean());
}

TEST(CachingTest, CblCallbackStormsOnWriteContendedHotSet) {
  // The flip side of callback locking: frequent writes to a small hot set
  // trigger callbacks to every caching client, so CBL sends *more* messages
  // than s-2PL there (the classic CB-read trade-off).
  SimConfig config = BaseConfig(Protocol::kS2pl);
  config.workload.read_prob = 0.8;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kCbl;
  const RunResult cbl = RunSimulation(config);
  ASSERT_FALSE(cbl.timed_out);
  EXPECT_GT(MessagesPerCommit(cbl), MessagesPerCommit(s2pl));
}

TEST(CachingTest, CblWriteHeavyStillLive) {
  SimConfig config = BaseConfig(Protocol::kCbl);
  config.workload.read_prob = 0.2;
  config.record_history = true;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST(CachingTest, O2plReadOnlyNeverAborts) {
  SimConfig config = BaseConfig(Protocol::kO2pl);
  config.workload.read_prob = 1.0;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.aborts, 0);
}

TEST(CachingTest, O2plAbortsOnCertificationConflicts) {
  SimConfig config = BaseConfig(Protocol::kO2pl);
  config.workload.read_prob = 0.2;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_GT(result.aborts, 0);
}

TEST(CachingTest, O2plResponseIncludesCertificationRound) {
  // A read-only cache-miss transaction costs fetch (2L) per op plus the
  // certification round (2L): response >= 4L for single-op transactions.
  SimConfig config = BaseConfig(Protocol::kO2pl);
  config.num_clients = 1;
  config.workload.read_prob = 0.0;
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 1;
  config.workload.num_items = 100000;  // cache misses essentially always
  config.workload.max_items_per_txn = 1;
  config.measured_txns = 20;
  config.warmup_txns = 0;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_GE(result.response.mean(), 4 * 100.0);
}

TEST(CachingTest, CblSingleClientReadsBecomeLocal) {
  SimConfig config = BaseConfig(Protocol::kCbl);
  config.num_clients = 1;
  config.workload.read_prob = 1.0;
  config.measured_txns = 300;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  // After the cache warms, every read hits locally: far fewer messages
  // than two per operation.
  EXPECT_LT(MessagesPerCommit(result), 1.0);
}

TEST(CachingTest, AllCachingProtocolsDeterministic) {
  for (Protocol protocol :
       {Protocol::kC2pl, Protocol::kCbl, Protocol::kO2pl}) {
    SimConfig config = BaseConfig(protocol);
    config.measured_txns = 200;
    const RunResult a = RunSimulation(config);
    const RunResult b = RunSimulation(config);
    EXPECT_EQ(a.events, b.events) << ToString(protocol);
    EXPECT_EQ(a.response.mean(), b.response.mean()) << ToString(protocol);
  }
}

// c-2PL is s-2PL plus a client data cache: every trace event matches s-2PL's
// field for field, except that a grant the client's cached copy satisfies
// travels as a control-only "grant(validate)" instead of a "grant+data".
void ExpectC2plTraceIsS2plTrace(SimConfig config, const std::string& what) {
  config.obs_trace = true;
  config.protocol = Protocol::kS2pl;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kC2pl;
  ASSERT_TRUE(config.Validate().ok()) << what << ": "
                                      << config.Validate().ToString();
  const RunResult c2pl = RunSimulation(config);
  ASSERT_FALSE(s2pl.timed_out) << what;
  ASSERT_FALSE(c2pl.timed_out) << what;
  ASSERT_EQ(c2pl.obs_trace.size(), s2pl.obs_trace.size()) << what;
  int64_t validate_grants = 0;
  for (size_t i = 0; i < s2pl.obs_trace.size(); ++i) {
    const obs::TraceEvent& want = s2pl.obs_trace[i];
    obs::TraceEvent got = c2pl.obs_trace[i];
    const bool message = got.kind == obs::EventKind::kMsgSend ||
                         got.kind == obs::EventKind::kMsgDeliver;
    if (message && got.label == "grant(validate)") {
      EXPECT_EQ(got.payload, static_cast<int64_t>(net::kControlPayload))
          << what << " event " << i;
      EXPECT_EQ(want.label, "grant+data") << what << " event " << i;
      EXPECT_EQ(want.payload, static_cast<int64_t>(net::kControlPayload +
                                                   net::kDataPayload))
          << what << " event " << i;
      got.label = want.label;
      got.payload = want.payload;
      validate_grants += got.kind == obs::EventKind::kMsgSend ? 1 : 0;
    }
    ASSERT_TRUE(got == want) << what << ": first divergence at event " << i
                             << " (" << obs::ToString(want.kind) << " at t="
                             << want.time << " vs " << obs::ToString(got.kind)
                             << " at t=" << got.time << ")";
  }
  EXPECT_GT(validate_grants, 0) << what << ": no grant hit the cache";
  EXPECT_EQ(c2pl.response.mean(), s2pl.response.mean()) << what;
  EXPECT_EQ(c2pl.wal_appends, s2pl.wal_appends) << what;
}

SimConfig EquivalenceConfig(int32_t servers) {
  SimConfig config;
  config.num_clients = 30;
  config.num_servers = servers;
  config.latency = 100;
  config.workload.num_items = 60;
  config.workload.read_prob = 0.6;
  config.measured_txns = 300;
  config.warmup_txns = 30;
  config.seed = 21;
  config.max_sim_time = 1'000'000'000;
  return config;
}

TEST(CachingTest, C2plTraceIsS2plTraceAtEveryShardCount) {
  for (int32_t servers : {1, 2, 4}) {
    ExpectC2plTraceIsS2plTrace(EquivalenceConfig(servers),
                               "servers " + std::to_string(servers));
  }
}

TEST(CachingTest, C2plTraceIsS2plTraceUnderJitter) {
  SimConfig config = EquivalenceConfig(3);
  config.latency_jitter = 30;
  ExpectC2plTraceIsS2plTrace(config, "jitter 30");
}

TEST(CachingTest, C2plTraceIsS2plTraceOnEveryCommitPath) {
  for (CommitPath path :
       {CommitPath::kEarly, CommitPath::kFastPath, CommitPath::kCoord}) {
    SimConfig config = EquivalenceConfig(4);
    config.commit_path = path;
    // A fast server mesh lets kCoord actually move the coordinator.
    if (path == CommitPath::kCoord) config.server_latency = 10;
    ExpectC2plTraceIsS2plTrace(config, ToString(path));
  }
}

}  // namespace
}  // namespace gtpl::proto
