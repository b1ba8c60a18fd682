// Equivalence and contract tests of the conservative per-shard parallel
// engine (protocols/parsim.h, DESIGN.md §15):
//   - results are bit-identical at ANY sim_threads value (1, 2, 4, 8), at
//     1 through 8 shards, for both requester-victim protocols;
//   - RunSimulation routes sim_threads == 1 to the serial engine and
//     sim_threads > 1 to the parallel one;
//   - the parallel engine's histories are serializable and its span
//     decomposition stays exact;
//   - Validate() accepts exactly the decomposable configuration subset.

#include "protocols/parsim.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "lease/lease.h"
#include "protocols/config.h"
#include "protocols/metrics.h"
#include "stats/welford.h"

namespace gtpl::proto {
namespace {

/// Small but contended: 16 clients on a 64-item pool keeps every shard
/// busy at up to 8 servers while the whole battery stays sub-second.
SimConfig ParsimConfig(Protocol protocol, int32_t servers,
                       int32_t sim_threads) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 16;
  config.num_servers = servers;
  config.latency = 10;
  config.workload.num_items = 64;
  config.measured_txns = 250;
  config.warmup_txns = 25;
  config.seed = 7;
  config.instant_abort_notice = false;  // the subset's charged-notice rule
  config.sim_threads = sim_threads;
  return config;
}

void AppendWelford(const char* name, const stats::Welford& w,
                   std::string* out) {
  char buf[160];
  // %a prints exact hex floats: any drift in accumulation order shows.
  std::snprintf(buf, sizeof(buf), "%s:%lld,%a,%a,%a;", name,
                static_cast<long long>(w.count()), w.mean(), w.min(),
                w.max());
  *out += buf;
}

/// Every deterministic metric of a run, rendered exactly. Two runs with
/// equal fingerprints produced the same bytes everywhere it matters.
std::string Fingerprint(const RunResult& r) {
  std::string out;
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "c:%lld,a:%lld,tc:%lld,ta:%lld,ev:%llu,end:%lld,to:%d,xs:%lld;",
      static_cast<long long>(r.commits), static_cast<long long>(r.aborts),
      static_cast<long long>(r.total_commits),
      static_cast<long long>(r.total_aborts),
      static_cast<unsigned long long>(r.events),
      static_cast<long long>(r.end_time), r.timed_out ? 1 : 0,
      static_cast<long long>(r.cross_server_commits));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "net:%llu,%llu,%llu,%llu,%llu,%llu;wal:%lld,%lld,%lld;",
                static_cast<unsigned long long>(r.network.messages),
                static_cast<unsigned long long>(r.network.server_to_client),
                static_cast<unsigned long long>(r.network.client_to_server),
                static_cast<unsigned long long>(r.network.client_to_client),
                static_cast<unsigned long long>(r.network.server_to_server),
                static_cast<unsigned long long>(r.network.payload_units),
                static_cast<long long>(r.wal_appends),
                static_cast<long long>(r.wal_forces),
                static_cast<long long>(r.wal_retained));
  out += buf;
  std::snprintf(buf, sizeof(buf), "sync:%llu,%llu;",
                static_cast<unsigned long long>(r.sync_windows),
                static_cast<unsigned long long>(r.sync_stalls));
  out += buf;
  out += "lp:";
  for (uint64_t events : r.shard_events) {
    std::snprintf(buf, sizeof(buf), "%llu,",
                  static_cast<unsigned long long>(events));
    out += buf;
  }
  out += ";";
  AppendWelford("resp", r.response, &out);
  AppendWelford("opw", r.op_wait, &out);
  AppendWelford("aage", r.abort_age, &out);
  AppendWelford("aheld", r.abort_held_items, &out);
  AppendWelford("lw", r.span_lock_wait, &out);
  AppendWelford("pp", r.span_propagation, &out);
  AppendWelford("qq", r.span_queueing, &out);
  AppendWelford("ex", r.span_execution, &out);
  AppendWelford("cm", r.span_commit, &out);
  AppendWelford("cp", r.span_commit_prepare, &out);
  AppendWelford("cv", r.span_commit_vote, &out);
  AppendWelford("part", r.commit_participants, &out);
  AppendWelford("fl", r.commit_flights, &out);
  std::snprintf(buf, sizeof(buf), "hist:%a,%a,%a,%a,%a,%a;",
                r.response_hist.Percentile(0.50),
                r.response_hist.Percentile(0.95),
                r.response_hist.Percentile(0.99),
                r.op_wait_hist.Percentile(0.50),
                r.op_wait_hist.Percentile(0.99),
                r.xcommit_span_hist.Percentile(0.50));
  out += buf;
  return out;
}

// The tentpole contract: for both requester-victim protocols and shard
// counts 1..8, the parallel engine produces byte-identical metrics at any
// sim_threads value — 1 (inline windows), 2, 4, and 8 — with the > 1
// values routed through RunSimulation exactly as the CLI would.
TEST(ParsimEquivalenceTest, BitIdenticalAtAnyThreadAndShardCount) {
  for (Protocol protocol : {Protocol::kNoWait, Protocol::kWaitDie}) {
    for (int32_t servers : {1, 2, 4, 8}) {
      const RunResult base =
          RunParallelSimulation(ParsimConfig(protocol, servers, 1));
      const std::string base_print = Fingerprint(base);
      EXPECT_FALSE(base.timed_out);
      EXPECT_GE(base.commits, 250);
      ASSERT_EQ(base.shard_events.size(), static_cast<size_t>(servers));
      for (int32_t threads : {2, 4, 8}) {
        const RunResult run =
            RunSimulation(ParsimConfig(protocol, servers, threads));
        EXPECT_EQ(Fingerprint(run), base_print)
            << ToString(protocol) << ", " << servers << " servers, "
            << threads << " threads";
      }
    }
  }
}

TEST(ParsimEquivalenceTest, RunSimulationRoutesThreadsOneToSerialEngine) {
  SimConfig config = ParsimConfig(Protocol::kNoWait, 4, 1);
  const RunResult via_registry = RunSimulation(config);
  const RunResult direct = cc::EngineFor(config.protocol).make(config)->Run();
  EXPECT_EQ(Fingerprint(via_registry), Fingerprint(direct));
  // The serial engine reports no parallel telemetry.
  EXPECT_TRUE(via_registry.shard_events.empty());
  EXPECT_EQ(via_registry.sync_windows, 0u);
}

// The parallel engine is a different simulation than the serial one
// (striped ids, barrier-latched gates) — but it must still be a correct
// one: every history serializable, every span decomposition exact.
TEST(ParsimEquivalenceTest, HistoriesSerializableAndSpansExact) {
  for (Protocol protocol : {Protocol::kNoWait, Protocol::kWaitDie}) {
    for (int32_t servers : {2, 8}) {
      SimConfig config = ParsimConfig(protocol, servers, 2);
      config.record_history = true;
      const RunResult result = RunSimulation(config);
      std::string explanation;
      EXPECT_TRUE(HistoryIsSerializable(result.history, &explanation))
          << ToString(protocol) << ", " << servers
          << " servers: " << explanation;
      EXPECT_GE(result.history.size(), static_cast<size_t>(result.commits));
      for (const CommittedTxn& txn : result.history) {
        EXPECT_EQ(txn.span.Total(), txn.commit_time - txn.start_time)
            << "txn " << txn.id;
        EXPECT_GE(txn.span.CommitResidual(), 0) << "txn " << txn.id;
      }
    }
  }
}

TEST(ParsimEquivalenceTest, ParallelTelemetryIsPopulated) {
  const RunResult result =
      RunSimulation(ParsimConfig(Protocol::kNoWait, 4, 2));
  EXPECT_GT(result.sync_windows, 0u);
  ASSERT_EQ(result.shard_events.size(), 4u);
  uint64_t total = 0;
  for (uint64_t events : result.shard_events) {
    EXPECT_GT(events, 0u);
    total += events;
  }
  EXPECT_EQ(total, result.events);
}

TEST(ParsimValidateTest, AcceptsTheDecomposableSubset) {
  EXPECT_TRUE(ParsimConfig(Protocol::kNoWait, 4, 2).Validate().ok());
  EXPECT_TRUE(ParsimConfig(Protocol::kWaitDie, 1, 8).Validate().ok());
  SimConfig with_history = ParsimConfig(Protocol::kNoWait, 2, 2);
  with_history.record_history = true;  // history IS allowed (tests need it)
  EXPECT_TRUE(with_history.Validate().ok());
}

TEST(ParsimValidateTest, RejectsEverythingOutsideTheSubset) {
  // sim_threads itself is range-checked (the CLI strict-parse backstop).
  SimConfig zero = ParsimConfig(Protocol::kNoWait, 2, 2);
  zero.sim_threads = 0;
  EXPECT_FALSE(zero.Validate().ok());

  // Only the requester-victim protocols decompose.
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl, Protocol::kOcc,
                            Protocol::kWoundWait}) {
    EXPECT_FALSE(ParsimConfig(protocol, 2, 2).Validate().ok())
        << ToString(protocol);
  }

  SimConfig commit = ParsimConfig(Protocol::kNoWait, 2, 2);
  commit.commit_path = CommitPath::kEarly;
  EXPECT_FALSE(commit.Validate().ok());

  SimConfig leased = ParsimConfig(Protocol::kNoWait, 2, 2);
  leased.lease.mode = lease::LeaseMode::kSticky;
  EXPECT_FALSE(leased.Validate().ok());

  // Non-uniform network models have no single lookahead.
  SimConfig jitter = ParsimConfig(Protocol::kNoWait, 2, 2);
  jitter.latency_jitter = 5;
  EXPECT_FALSE(jitter.Validate().ok());
  SimConfig spread = ParsimConfig(Protocol::kNoWait, 2, 2);
  spread.latency_spread = 0.5;
  EXPECT_FALSE(spread.Validate().ok());
  SimConfig bandwidth = ParsimConfig(Protocol::kNoWait, 2, 2);
  bandwidth.link_bandwidth = 4.0;
  EXPECT_FALSE(bandwidth.Validate().ok());
  SimConfig mesh = ParsimConfig(Protocol::kNoWait, 2, 2);
  mesh.server_latency = 5;
  EXPECT_FALSE(mesh.Validate().ok());
  SimConfig zero_latency = ParsimConfig(Protocol::kNoWait, 2, 2);
  zero_latency.latency = 0;
  EXPECT_FALSE(zero_latency.Validate().ok());

  // An instant abort notice is a zero-latency cross-shard edge.
  SimConfig instant = ParsimConfig(Protocol::kNoWait, 2, 2);
  instant.instant_abort_notice = true;
  EXPECT_FALSE(instant.Validate().ok());

  // The obs trace works at any thread count (per-LP tracers merged at
  // barriers — DESIGN.md §16).
  SimConfig traced = ParsimConfig(Protocol::kNoWait, 2, 2);
  traced.obs_trace = true;
  EXPECT_TRUE(traced.Validate().ok());

  // Every rejection is threads-gated: the same configs pass at 1 thread.
  SimConfig serial = ParsimConfig(Protocol::kS2pl, 2, 1);
  serial.instant_abort_notice = true;
  serial.latency_jitter = 5;
  EXPECT_TRUE(serial.Validate().ok());
}

}  // namespace
}  // namespace gtpl::proto
