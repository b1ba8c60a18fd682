// Equivalence battery for the commit-path registry (ISSUE 7). The
// non-negotiable claims behind `--commit`:
//
//  * kClassic is the default and the standing goldens pin it bit-for-bit,
//    so a run that never leaves the classic path must be unchanged — every
//    variant is inert on a single server (no cross-server commits exist),
//    and kCoord degrades to kClassic *exactly* under the paper's uniform
//    latency (the placement score can never favor a remote coordinator).
//  * kFastPath and kEarly change WHEN commits happen, never WHAT commits:
//    on a workload where every cross-server transaction qualifies (all
//    reads), they commit the same per-client transaction sequences as
//    kClassic — identical ops, identical decisions, only timing moves.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "protocols/commit.h"
#include "protocols/engine.h"

namespace gtpl::proto {
namespace {

SimConfig BaseConfig(Protocol protocol, int32_t servers) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 10;
  config.num_servers = servers;
  config.latency = 120;
  config.workload.num_items = 24;
  config.measured_txns = 200;
  config.warmup_txns = 20;
  config.seed = 17;
  config.record_history = true;
  config.max_sim_time = 10'000'000'000;
  return config;
}

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b,
                         const std::string& what) {
  EXPECT_EQ(a.commits, b.commits) << what;
  EXPECT_EQ(a.aborts, b.aborts) << what;
  EXPECT_EQ(a.total_commits, b.total_commits) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  EXPECT_EQ(a.response.mean(), b.response.mean()) << what;
  EXPECT_EQ(a.network.messages, b.network.messages) << what;
  EXPECT_EQ(a.wal_appends, b.wal_appends) << what;
  EXPECT_EQ(a.wal_forces, b.wal_forces) << what;
  EXPECT_EQ(a.cross_server_commits, b.cross_server_commits) << what;
  EXPECT_EQ(a.span_commit.mean(), b.span_commit.mean()) << what;
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << what << " txn " << i;
    EXPECT_EQ(a.history[i].commit_time, b.history[i].commit_time)
        << what << " txn " << i;
  }
}

// On one server there are no cross-server commits, so no variant has
// anything to change: every run must be bit-identical to classic, down to
// the event count and the per-transaction commit times.
TEST(CommitEquivalenceTest, EveryVariantInertOnSingleServer) {
  for (const cc::EngineInfo& info : cc::Engines()) {
    const RunResult classic = RunSimulation(BaseConfig(info.protocol, 1));
    for (const CommitPathInfo& path : CommitPaths()) {
      if (path.path == CommitPath::kClassic) continue;
      SimConfig config = BaseConfig(info.protocol, 1);
      config.commit_path = path.path;
      const RunResult variant = RunSimulation(config);
      ExpectIdenticalRuns(classic, variant,
                          std::string(info.name) + " x " + path.name);
      EXPECT_EQ(variant.early_prepares, 0) << path.name;
      EXPECT_EQ(variant.fastpath_commits, 0) << path.name;
      EXPECT_EQ(variant.coord_remote_commits, 0) << path.name;
    }
  }
}

// Under uniform latency the remote-coordinator score is always negative (a
// handoff plus an ack cost 2L against a lock-hold saving that cannot exceed
// 0), so kCoord must take the classic path for every single transaction —
// not statistically close: the same run, event for event.
TEST(CommitEquivalenceTest, CoordIsExactlyClassicUnderUniformLatency) {
  for (const cc::EngineInfo& info : cc::Engines()) {
    // CBL only admits the classic path under sharding (Validate() rejects
    // kCoord for it), so there is nothing to compare.
    if (info.protocol == Protocol::kCbl) continue;
    const RunResult classic = RunSimulation(BaseConfig(info.protocol, 4));
    SimConfig config = BaseConfig(info.protocol, 4);
    config.commit_path = CommitPath::kCoord;
    const RunResult coord = RunSimulation(config);
    ExpectIdenticalRuns(classic, coord, std::string(info.name) + " coord");
    EXPECT_EQ(coord.coord_remote_commits, 0) << info.name;
  }
}

// The commit decisions a client's transactions receive, in client-local
// order: (item, mode) per op per committed transaction. Timing-only
// variants may shift which client's transaction ends the measured window,
// so sequences are compared over their common prefix.
using ClientSequences =
    std::map<SiteId, std::vector<std::vector<std::pair<ItemId, LockMode>>>>;

ClientSequences SequencesOf(const RunResult& result) {
  ClientSequences sequences;
  for (const CommittedTxn& txn : result.history) {
    std::vector<std::pair<ItemId, LockMode>> ops;
    for (const OpRecord& op : txn.ops) {
      ops.emplace_back(op.item, op.mode);
    }
    sequences[txn.client].push_back(std::move(ops));
  }
  return sequences;
}

void ExpectSameCommitDecisions(const RunResult& a, const RunResult& b,
                               const std::string& what) {
  EXPECT_EQ(a.commits, b.commits) << what;
  const ClientSequences seq_a = SequencesOf(a);
  const ClientSequences seq_b = SequencesOf(b);
  for (const auto& [client, txns_a] : seq_a) {
    auto it = seq_b.find(client);
    ASSERT_NE(it, seq_b.end()) << what << " client " << client;
    const auto& txns_b = it->second;
    const size_t common = std::min(txns_a.size(), txns_b.size());
    ASSERT_GT(common, 0u) << what << " client " << client;
    for (size_t i = 0; i < common; ++i) {
      EXPECT_EQ(txns_a[i], txns_b[i])
          << what << " client " << client << " txn " << i;
    }
  }
}

// All-read workload on 3 shards: every cross-server transaction has zero
// write shards, so kFastPath takes its one-round path for all of them and
// kEarly banks every vote — yet both must commit exactly what classic
// commits, per client, in the same order. Shared locks never conflict, so
// any abort at all would be a correctness bug, not a policy difference.
TEST(CommitEquivalenceTest, TimingVariantsPreserveCommitDecisions) {
  SimConfig classic_config = BaseConfig(Protocol::kS2pl, 3);
  classic_config.workload.read_prob = 1.0;
  const RunResult classic = RunSimulation(classic_config);
  EXPECT_EQ(classic.total_aborts, 0);
  for (CommitPath path : {CommitPath::kFastPath, CommitPath::kEarly}) {
    SimConfig config = classic_config;
    config.commit_path = path;
    const RunResult variant = RunSimulation(config);
    EXPECT_EQ(variant.total_aborts, 0) << ToString(path);
    ExpectSameCommitDecisions(classic, variant, ToString(path));
    if (path == CommitPath::kFastPath) {
      EXPECT_EQ(variant.fastpath_commits, variant.cross_server_commits);
    } else {
      EXPECT_GT(variant.early_prepares, 0);
    }
  }
}

}  // namespace
}  // namespace gtpl::proto
