// Integration tests: whole-system simulations for every protocol, checking
// progress, sane metrics, and serializability of the committed history.

#include "protocols/engine.h"

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "protocols/config.h"
#include "protocols/metrics.h"

namespace gtpl::proto {
namespace {

SimConfig SmallConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 10;
  config.latency = 50;
  config.workload.num_items = 10;
  config.workload.read_prob = 0.5;
  config.measured_txns = 500;
  config.warmup_txns = 50;
  config.record_history = true;
  config.seed = 11;
  config.max_sim_time = 20'000'000;
  return config;
}

class EveryProtocolTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(EveryProtocolTest, MakesProgressUnderContention) {
  SimConfig config = SmallConfig(GetParam());
  const RunResult result = RunSimulation(config);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.commits, 500);
  EXPECT_GT(result.response.mean(), 0.0);
  EXPECT_GT(result.network.messages, 0u);
}

TEST_P(EveryProtocolTest, HistoryIsSerializable) {
  SimConfig config = SmallConfig(GetParam());
  const RunResult result = RunSimulation(config);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST_P(EveryProtocolTest, ReadOnlyWorkloadCommitsEverything) {
  SimConfig config = SmallConfig(GetParam());
  config.workload.read_prob = 1.0;
  const RunResult result = RunSimulation(config);
  EXPECT_FALSE(result.timed_out);
  // Read-only s-2PL/c-2PL/CBL/O2PL never conflict; g-2PL can abort on
  // read-only deadlocks only at tiny latencies (tested elsewhere).
  if (GetParam() != Protocol::kG2pl) {
    EXPECT_EQ(result.aborts, 0);
  }
}

TEST_P(EveryProtocolTest, WriteOnlyWorkloadSerializable) {
  SimConfig config = SmallConfig(GetParam());
  config.workload.read_prob = 0.0;
  config.measured_txns = 300;
  const RunResult result = RunSimulation(config);
  EXPECT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST_P(EveryProtocolTest, DeterministicAcrossIdenticalSeeds) {
  SimConfig config = SmallConfig(GetParam());
  config.measured_txns = 200;
  const RunResult a = RunSimulation(config);
  const RunResult b = RunSimulation(config);
  EXPECT_EQ(a.response.mean(), b.response.mean());
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.events, b.events);
}

TEST_P(EveryProtocolTest, DifferentSeedsDiffer) {
  SimConfig config = SmallConfig(GetParam());
  config.measured_txns = 200;
  const RunResult a = RunSimulation(config);
  config.seed += 1;
  const RunResult b = RunSimulation(config);
  EXPECT_NE(a.events, b.events);
}

TEST_P(EveryProtocolTest, SingleClientNeverAborts) {
  SimConfig config = SmallConfig(GetParam());
  config.num_clients = 1;
  config.measured_txns = 200;
  const RunResult result = RunSimulation(config);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.aborts, 0);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST_P(EveryProtocolTest, HighContentionOneItem) {
  SimConfig config = SmallConfig(GetParam());
  config.workload.num_items = 1;
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 1;
  config.workload.read_prob = 0.2;
  config.measured_txns = 300;
  const RunResult result = RunSimulation(config);
  EXPECT_FALSE(result.timed_out);
  // Single-item transactions cannot deadlock under the locking protocols;
  // O2PL still aborts on certification conflicts.
  if (GetParam() != Protocol::kO2pl) {
    EXPECT_EQ(result.aborts, 0);
  }
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, EveryProtocolTest,
                         ::testing::Values(Protocol::kS2pl, Protocol::kG2pl,
                                           Protocol::kC2pl, Protocol::kCbl,
                                           Protocol::kO2pl),
                         [](const ::testing::TestParamInfo<Protocol>& param_info) {
                           return std::string(
                               cc::Engines().For(param_info.param).name);
                         });

TEST_P(EveryProtocolTest, ClientLogsAreGarbageCollected) {
  // The paper's recovery assumption: each site garbage collects its WAL
  // once the data are made permanent at the server. Retained records must
  // stay far below the total appended.
  SimConfig config = SmallConfig(GetParam());
  config.workload.read_prob = 0.3;  // plenty of updates to log
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_GT(result.wal_appends, 0);
  EXPECT_LT(result.wal_retained, result.wal_appends / 4)
      << "client WALs are not being truncated";
}

// Exact WAL counters of a many-client run on every registered engine. A
// client's log is forced and truncated in the MaybeGcClientLogs call that
// first finds its oldest pending commit permanent; doing it in any other
// call moves wal_forces or wal_retained, which no golden pins.
TEST(ClientLogGcTest, CountersArePinnedOnEveryEngine) {
  struct Counters {
    int64_t appends;
    int64_t forces;
    int64_t retained;
  };
  struct Pinned {
    const char* engine;
    int32_t servers;
    Counters counters;
  };
  // c-2PL is s-2PL plus a client data cache, which logs nothing of its own:
  // its rows are s-2PL's, not figures of their own.
  constexpr Counters kS2pl1 = {17903, 9471, 355};
  constexpr Counters kS2pl4 = {31257, 17838, 387};
  static const Pinned kPinned[] = {
      {"s2pl", 1, kS2pl1},                {"g2pl", 1, {11885, 3300, 707}},
      {"c2pl", 1, kS2pl1},                {"cbl", 1, {17652, 9394, 350}},
      {"o2pl", 1, {26286, 8321, 1564}},   {"nowait", 1, {29517, 7047, 1898}},
      {"waitdie", 1, {30100, 7755, 2095}},
      {"woundwait", 1, {19615, 9080, 613}},
      {"occ", 1, {26431, 8315, 1627}},    {"ordered", 1, {19757, 8201, 731}},
      {"s2pl", 4, kS2pl4},                {"g2pl", 4, {24808, 13144, 754}},
      {"c2pl", 4, kS2pl4},                {"cbl", 4, {31185, 17325, 342}},
      {"o2pl", 4, {46210, 21344, 2453}},  {"nowait", 4, {38365, 11514, 2057}},
      {"waitdie", 4, {41391, 13232, 2143}},
      {"woundwait", 4, {31605, 16840, 512}},
      {"occ", 4, {46491, 21420, 2345}},   {"ordered", 4, {30194, 14973, 703}},
  };
  ASSERT_EQ(std::size(kPinned), 2 * cc::Engines().size())
      << "pin every registered engine at 1 and 4 servers";
  for (const Pinned& pinned : kPinned) {
    const cc::EngineInfo* info = cc::FindEngine(pinned.engine);
    ASSERT_NE(info, nullptr) << pinned.engine;
    SimConfig config;
    config.protocol = info->protocol;
    config.num_clients = 300;
    config.num_servers = pinned.servers;
    config.latency = 50;
    config.workload.num_items = 500;
    config.workload.read_prob = 0.3;
    config.measured_txns = 3000;
    config.warmup_txns = 300;
    config.seed = 5;
    config.max_sim_time = 20'000'000'000;
    const RunResult result = RunSimulation(config);
    const std::string what =
        std::string(pinned.engine) + " x " + std::to_string(pinned.servers);
    ASSERT_FALSE(result.timed_out) << what;
    EXPECT_EQ(result.wal_appends, pinned.counters.appends) << what;
    EXPECT_EQ(result.wal_forces, pinned.counters.forces) << what;
    EXPECT_EQ(result.wal_retained, pinned.counters.retained) << what;
  }
}

// Every engine forces the client's commit record before the transaction
// reports commit (EngineBase::StartCommit). With one client nothing
// contends, so a force delay must lengthen every commit phase by exactly
// that delay, whatever the engine's own commit rounds cost.
TEST(ClientLogGcTest, EveryEngineForcesTheCommitRecord) {
  for (const cc::EngineInfo& info : cc::Engines()) {
    SimConfig config;
    config.protocol = info.protocol;
    config.num_clients = 1;
    config.latency = 100;
    config.workload.num_items = 1000;
    config.measured_txns = 200;
    config.seed = 9;
    config.max_sim_time = 1'000'000'000;
    const RunResult unforced = RunSimulation(config);
    config.wal_force_delay = 50;
    const RunResult forced = RunSimulation(config);
    ASSERT_FALSE(unforced.timed_out) << info.name;
    ASSERT_FALSE(forced.timed_out) << info.name;
    EXPECT_DOUBLE_EQ(forced.span_commit.mean() - unforced.span_commit.mean(),
                     50.0)
        << info.name;
  }
}

TEST(PaperShapeTest, G2plBeatsS2plOnUpdateWorkloadInWan) {
  SimConfig config;
  config.num_clients = 20;
  config.latency = 500;
  config.workload.read_prob = 0.25;
  config.measured_txns = 1500;
  config.warmup_txns = 150;
  config.seed = 3;
  config.max_sim_time = 500'000'000;
  config.protocol = Protocol::kS2pl;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kG2pl;
  const RunResult g2pl = RunSimulation(config);
  ASSERT_FALSE(s2pl.timed_out);
  ASSERT_FALSE(g2pl.timed_out);
  EXPECT_LT(g2pl.response.mean(), s2pl.response.mean());
}

TEST(PaperShapeTest, S2plBeatsG2plOnReadOnlyWorkload) {
  SimConfig config;
  config.num_clients = 20;
  config.latency = 250;
  config.workload.read_prob = 1.0;
  config.measured_txns = 1500;
  config.warmup_txns = 150;
  config.seed = 3;
  config.max_sim_time = 500'000'000;
  config.protocol = Protocol::kS2pl;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kG2pl;
  const RunResult g2pl = RunSimulation(config);
  ASSERT_FALSE(s2pl.timed_out);
  ASSERT_FALSE(g2pl.timed_out);
  EXPECT_GT(g2pl.response.mean(), s2pl.response.mean());
}

// ShardsOf is the one shard-set definition: the commit paths' participants
// and write shards, and the parallel engine's release and abort fan-outs.
// It reads the run's completed operations only.
TxnRun RunWith(const std::vector<workload::Operation>& ops,
               size_t completed) {
  TxnRun run;
  run.spec.ops = ops;
  for (size_t i = 0; i < completed; ++i) {
    OpRecord record;
    record.item = ops[i].item;
    record.mode = ops[i].mode;
    run.records.push_back(record);
  }
  return run;
}

using Shards = std::vector<int32_t>;
constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kX = LockMode::kExclusive;

TEST(ShardsOfTest, HashRoutingWithRepeatedItems) {
  SimConfig config;
  config.num_servers = 4;
  config.workload.num_items = 40;
  // Shards 1, 2, 1, 1, 0, 3; item 9 repeats as a read and a write.
  const TxnRun run = RunWith(
      {{9, kS}, {6, kX}, {13, kX}, {9, kX}, {4, kS}, {7, kX}}, 6);
  EXPECT_EQ(ShardsOf(config, run), (Shards{0, 1, 2, 3}));
  EXPECT_EQ(ShardsOf(config, run, /*writes_only=*/true), (Shards{1, 2, 3}));
}

TEST(ShardsOfTest, RangeRoutingWriteOnly) {
  SimConfig config;
  config.num_servers = 4;
  config.workload.num_items = 10;  // 3 items per shard; shard 3 holds 9
  config.shard_routing = ShardRouting::kRange;
  const TxnRun run = RunWith({{9, kX}, {1, kX}, {2, kX}, {5, kX}}, 4);
  EXPECT_EQ(ShardsOf(config, run), (Shards{0, 1, 3}));
  EXPECT_EQ(ShardsOf(config, run, /*writes_only=*/true), (Shards{0, 1, 3}));
  // A read-only run writes no shard.
  const TxnRun reads = RunWith({{9, kS}, {3, kS}}, 2);
  EXPECT_EQ(ShardsOf(config, reads), (Shards{1, 3}));
  EXPECT_TRUE(ShardsOf(config, reads, /*writes_only=*/true).empty());
}

TEST(ShardsOfTest, OnlyCompletedOperationsCount) {
  SimConfig config;
  config.num_servers = 4;
  config.workload.num_items = 40;
  const std::vector<workload::Operation> ops = {
      {6, kS}, {13, kX}, {9, kS}, {7, kX}};
  // An abort after two operations: the ops not yet run touch no shard.
  EXPECT_EQ(ShardsOf(config, RunWith(ops, 2)), (Shards{1, 2}));
  EXPECT_EQ(ShardsOf(config, RunWith(ops, 2), /*writes_only=*/true),
            (Shards{1}));
  EXPECT_TRUE(ShardsOf(config, RunWith(ops, 0)).empty());
  EXPECT_EQ(ShardsOf(config, RunWith(ops, 4)), (Shards{1, 2, 3}));
}

}  // namespace
}  // namespace gtpl::proto
