// Integration tests: whole-system simulations for every protocol, checking
// progress, sane metrics, and serializability of the committed history.

#include "protocols/engine.h"

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
