// Randomized battery for the sticky-lease layer (ISSUE 8): every
// lock-table engine that accepts --lease, in both lease modes, at 1-8
// shards, over contended repeat-access workloads. Each run must stay
// serializable, satisfy the lease-coherence invariant (at most one write
// lease per item, no grant while a revoke is outstanding — replayed from
// the protocol-event stream), keep its counters consistent with the
// deterministic trace, and replay bit-identically.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "lease/lease.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "protocols/engine.h"
#include "protocols/invariants.h"

namespace gtpl::cc {
namespace {

const char* const kLeaseEngines[] = {"s2pl", "nowait", "waitdie", "woundwait",
                                     "ordered"};

proto::SimConfig LeaseConfig(proto::Protocol protocol, uint64_t seed) {
  proto::SimConfig config;
  config.protocol = protocol;
  config.num_clients = 6 + static_cast<int32_t>(seed % 5);
  config.latency = 80 + static_cast<SimTime>(seed * 37 % 200);
  config.workload.num_items = 14 + static_cast<int32_t>(seed % 9);
  config.workload.read_prob = 0.5;
  config.workload.zipf_theta = 0.9;
  config.workload.repeat_prob = 0.5;
  config.measured_txns = 220;
  config.warmup_txns = 20;
  config.seed = seed;
  config.record_history = true;
  config.obs_trace = true;
  config.max_sim_time = 4'000'000'000;
  return config;
}

int64_t CountKind(const std::vector<obs::TraceEvent>& trace,
                  obs::EventKind kind) {
  int64_t count = 0;
  for (const obs::TraceEvent& event : trace) {
    count += event.kind == kind;
  }
  return count;
}

// The headline sweep: every lease-capable engine x lease mode x shard
// count, randomized workloads, full invariant battery. The lease-coherence
// check runs inside CheckProtocolInvariants (a no-op stream under
// --lease=none, exercised for real under sticky). Seeds 1-2 run the
// paper's pure-propagation transport; seed 3 runs a finite-bandwidth link
// with FIFO NIC queues, the in-order transport sticky leases accept at
// finite bandwidth.
TEST(LeaseProtocolTest, EveryEngineStaysSerializableUnderLeases) {
  for (const char* name : kLeaseEngines) {
    const EngineInfo* info = FindEngine(name);
    ASSERT_NE(info, nullptr) << name;
    for (const lease::LeaseMode mode :
         {lease::LeaseMode::kNone, lease::LeaseMode::kSticky}) {
      for (int32_t servers : {1, 2, 5, 8}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
          proto::SimConfig config = LeaseConfig(info->protocol, seed);
          config.num_servers = servers;
          config.lease.mode = mode;
          if (seed == 3) {
            config.link_bandwidth = 0.1;
            config.nic_queue = true;
          }
          SCOPED_TRACE(std::string(name) + " lease " +
                       (mode == lease::LeaseMode::kSticky ? "sticky" : "none") +
                       " servers " + std::to_string(servers) + " seed " +
                       std::to_string(seed));
          const proto::RunResult result = proto::RunSimulation(config);
          ASSERT_FALSE(result.timed_out);
          EXPECT_GT(result.commits, 0);
          std::string why;
          EXPECT_TRUE(proto::CheckProtocolInvariants(result.obs_trace, &why))
              << why;
          EXPECT_TRUE(proto::HistoryIsSerializable(result.history, &why))
              << why;
        }
      }
    }
  }
}

// The run counters are the trace, summed: revokes and releases increment
// exactly where kLeaseRevoke/kLeaseRelease are emitted, and every granted
// operation is either a server grant (kLeaseGrant) or a local cache hit.
TEST(LeaseProtocolTest, CountersMatchTraceExactly) {
  for (const char* name : kLeaseEngines) {
    const EngineInfo* info = FindEngine(name);
    ASSERT_NE(info, nullptr) << name;
    for (int32_t servers : {1, 3}) {
      proto::SimConfig config = LeaseConfig(info->protocol, 3);
      config.num_servers = servers;
      config.lease.mode = lease::LeaseMode::kSticky;
      SCOPED_TRACE(std::string(name) + " servers " + std::to_string(servers));
      const proto::RunResult result = proto::RunSimulation(config);
      ASSERT_FALSE(result.timed_out);
      EXPECT_GT(result.commits, 0);
      EXPECT_EQ(result.lease_revokes,
                CountKind(result.obs_trace, obs::EventKind::kLeaseRevoke));
      EXPECT_EQ(result.lease_releases,
                CountKind(result.obs_trace, obs::EventKind::kLeaseRelease));
      const int64_t grants =
          CountKind(result.obs_trace, obs::EventKind::kLeaseGrant);
      const int64_t ops =
          CountKind(result.obs_trace, obs::EventKind::kLockGrant);
      // Grants whose grant+data message lands after the requester died
      // never reach OpGranted, so hits can exceed ops - grants; never less.
      EXPECT_GE(result.lease_hits, ops - grants);
      EXPECT_GT(result.lease_hits, 0);
    }
  }
}

// Bit-identical replay: the sticky layer inherits the simulator's
// determinism contract — same seed, same trace, byte for byte.
TEST(LeaseProtocolTest, StickyRunsAreDeterministic) {
  for (const char* name : kLeaseEngines) {
    const EngineInfo* info = FindEngine(name);
    ASSERT_NE(info, nullptr) << name;
    proto::SimConfig config = LeaseConfig(info->protocol, 5);
    config.num_servers = 3;
    config.lease.mode = lease::LeaseMode::kSticky;
    const proto::RunResult a = proto::RunSimulation(config);
    const proto::RunResult b = proto::RunSimulation(config);
    EXPECT_EQ(a.commits, b.commits) << name;
    EXPECT_EQ(a.aborts, b.aborts) << name;
    EXPECT_EQ(a.events, b.events) << name;
    EXPECT_EQ(a.end_time, b.end_time) << name;
    EXPECT_EQ(a.lease_hits, b.lease_hits) << name;
    EXPECT_EQ(a.lease_revokes, b.lease_revokes) << name;
    EXPECT_EQ(obs::ToJsonl(a.obs_trace), obs::ToJsonl(b.obs_trace)) << name;
  }
}

// The revoke-wait sub-span is real accounting, not an estimate: it only
// appears under sticky leases, never exceeds the lock-wait span it is
// carved out of, and the span identity (spans sum to the response mean)
// is already pinned suite-wide by span_accounting_test.
TEST(LeaseProtocolTest, RevokeWaitSpanStaysInsideLockWait) {
  const EngineInfo* info = FindEngine("s2pl");
  ASSERT_NE(info, nullptr);
  proto::SimConfig config = LeaseConfig(info->protocol, 9);
  config.lease.mode = lease::LeaseMode::kSticky;
  const proto::RunResult result = proto::RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_GT(result.commits, 0);
  ASSERT_GT(result.span_lease_revoke.count(), 0);
  EXPECT_LE(result.span_lease_revoke.mean(), result.span_lock_wait.mean());
  EXPECT_GE(result.span_lease_revoke.mean(), 0.0);
}

// Config validation: sticky leases require a lock-table engine; the
// version-certifying and forward-list engines reject the flag.
TEST(LeaseProtocolTest, NonLockEnginesRejectSticky) {
  for (const char* name : {"g2pl", "occ", "c2pl", "cbl", "o2pl"}) {
    const EngineInfo* info = FindEngine(name);
    ASSERT_NE(info, nullptr) << name;
    proto::SimConfig config = LeaseConfig(info->protocol, 1);
    config.lease.mode = lease::LeaseMode::kSticky;
    EXPECT_FALSE(config.Validate().ok()) << name;
  }
}

// Config validation: lease callbacks assume in-order delivery per channel,
// so sticky leases reject the transports that reorder one — latency jitter,
// and finite bandwidth without NIC queues (a short revoke overtakes the
// long data-carrying grant it follows). FIFO NIC queues and the fixed
// per-pair latencies of spread and the server mesh keep order and pass.
TEST(LeaseProtocolTest, StickyRejectsReorderingTransports) {
  for (const char* name : kLeaseEngines) {
    const EngineInfo* info = FindEngine(name);
    ASSERT_NE(info, nullptr) << name;
    proto::SimConfig config = LeaseConfig(info->protocol, 1);
    config.lease.mode = lease::LeaseMode::kSticky;
    ASSERT_TRUE(config.Validate().ok()) << name;

    proto::SimConfig jitter = config;
    jitter.latency_jitter = 100;
    EXPECT_FALSE(jitter.Validate().ok()) << name;
    proto::SimConfig unqueued = config;
    unqueued.link_bandwidth = 0.1;
    EXPECT_FALSE(unqueued.Validate().ok()) << name;

    proto::SimConfig queued = unqueued;
    queued.nic_queue = true;
    EXPECT_TRUE(queued.Validate().ok()) << name;
    proto::SimConfig ordered_wan = config;
    ordered_wan.latency_spread = 0.5;
    ordered_wan.server_latency = 10;
    EXPECT_TRUE(ordered_wan.Validate().ok()) << name;
    // The same transports stay legal without leases.
    jitter.lease.mode = lease::LeaseMode::kNone;
    unqueued.lease.mode = lease::LeaseMode::kNone;
    EXPECT_TRUE(jitter.Validate().ok()) << name;
    EXPECT_TRUE(unqueued.Validate().ok()) << name;
  }
}

}  // namespace
}  // namespace gtpl::cc
