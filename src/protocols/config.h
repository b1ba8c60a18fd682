#ifndef GTPL_PROTOCOLS_CONFIG_H_
#define GTPL_PROTOCOLS_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "core/window_manager.h"
#include "lease/lease.h"
#include "protocols/commit.h"
#include "workload/generator.h"

namespace gtpl::proto {

/// Concurrency-control protocol run by the data-server system. The cc
/// registry (cc/registry.h) maps protocols to engine factories and string
/// names; add new engines there.
enum class Protocol {
  kS2pl = 0,     // server-based strict 2PL (paper baseline)
  kG2pl = 1,     // group 2PL (paper contribution)
  kC2pl = 2,     // caching 2PL: s-2PL plus a client data cache (extension)
  kCbl = 3,      // callback locking (extension)
  kO2pl = 4,     // optimistic 2PL: OCC plus a client data cache (extension)
  kNoWait = 5,   // no-wait 2PL: blocked requests abort the requester
  kWaitDie = 6,  // wait-die 2PL: wait for younger only, die on older
  kOcc = 7,      // optimistic CC, backward validation at commit
  kOrdered = 8,  // ordered 2PL: in-order acquisition, release at prepare
  kWoundWait = 9,  // wound-wait 2PL: wound younger blockers, wait on older
};

/// Display label of `protocol` (e.g. "g-2PL"): its cc registry row's
/// label, so this is defined in cc/registry.cc.
const char* ToString(Protocol protocol);

/// How a sharded server group partitions the item space (extension; the
/// paper's model is a single server owning every item).
enum class ShardRouting {
  kHash = 0,   // item % num_servers
  kRange = 1,  // contiguous ranges of ceil(num_items / num_servers) items
};

const char* ToString(ShardRouting routing);

/// Full configuration of one simulation run (paper Table 1 defaults:
/// 1 server, 50 clients, 25 hot items, 1-5 items/txn, think U[1,3],
/// idle U[2,10], MPL 1, latency swept over Table 2).
struct SimConfig {
  Protocol protocol = Protocol::kS2pl;
  int32_t num_clients = 50;
  SimTime latency = 500;

  /// Number of data servers the item space is sharded across (extension).
  /// 1 reproduces the paper's single-server model and runs the original
  /// engines; N > 1 runs the sharded engines with client-coordinated
  /// two-phase commit across the servers a transaction touched. Server 0
  /// keeps site id kServerSite (0); extra server k >= 1 gets site id
  /// num_clients + k.
  int32_t num_servers = 1;
  ShardRouting shard_routing = ShardRouting::kHash;

  /// Cross-server commit-path variant (protocols/commit.h, DESIGN.md §13).
  /// kClassic (default) is bit-identical to the pre-registry 2PC; the other
  /// variants shave WAN flights off the commit phase and are selected with
  /// --commit=NAME. Inert when num_servers == 1 (no cross-server commits).
  CommitPath commit_path = CommitPath::kClassic;

  /// One-way latency override for server-to-server messages (the commit
  /// handoff/prepare/vote/decision legs between shard sites). -1 (default)
  /// keeps the base latency model untouched — the paper's uniform
  /// assumption; >= 0 models a fast inter-datacenter mesh, the regime where
  /// kCoord's remote-coordinator choice pays off.
  SimTime server_latency = -1;

  /// Extensions beyond the paper's uniform-latency assumption ("the network
  /// latency between any two sites ... is the same"). `latency_jitter` adds
  /// U[0, jitter] to every message; `latency_spread` places clients at
  /// different distances: client c's one-way offset is
  /// latency * spread * (c/(C-1) - 1/2), applied additively per endpoint.
  /// Both default to 0 (the paper's model).
  SimTime latency_jitter = 0;
  double latency_spread = 0.0;

  /// Link-level transport extension (DESIGN.md §9). `link_bandwidth` is the
  /// link capacity in abstract payload units (net::k*Payload) per time
  /// unit; 0 = infinite, the paper's "gigabit rates" premise and the
  /// default — the transport then charges pure propagation, bit-identical
  /// to the pre-link-model engines (standing bandwidth_equivalence_test).
  /// Finite bandwidth charges transmission delay = payload / bandwidth per
  /// message; `nic_queue` additionally serializes concurrent sends FIFO
  /// through per-endpoint NIC queues (sender uplink + receiver downlink);
  /// `cross_traffic_load` (in [0,1), requires nic_queue) adds deterministic
  /// periodic background frames eating that fraction of every NIC.
  double link_bandwidth = 0.0;
  bool nic_queue = false;
  double cross_traffic_load = 0.0;
  /// Lease-based client lock caching (lease/lease.h, DESIGN.md §14).
  /// kNone (default) is bit-identical to the pre-lease engines; kSticky
  /// turns every grant from a lock-table engine into a per-item site lease
  /// that outlives the transaction, with callback revocation. Selected
  /// with --lease=NAME plus the --lease-ttl / --lease-max-held knobs.
  lease::LeaseOptions lease;

  workload::WorkloadProfile workload;
  core::G2plOptions g2pl;

  /// Committed transactions measured after the transient phase.
  int64_t measured_txns = 10000;
  /// Committed transactions discarded as the transient phase.
  int64_t warmup_txns = 1000;
  uint64_t seed = 1;

  /// Record per-transaction version reads/writes for serializability checks
  /// (tests only; costs memory).
  bool record_history = false;
  /// Record the structured observability trace (obs/trace.h): protocol
  /// events, lock traffic, 2PC rounds, and message-level queueing detail,
  /// returned in RunResult::obs_trace. Observation-only — never draws
  /// randomness or schedules events, so metrics are bit-identical with it
  /// on or off; the stream itself is deterministic per seed (DESIGN.md
  /// §11). Costs memory and time; default off (simulate --trace).
  bool obs_trace = false;
  /// Stream the observability trace to this JSONL file instead of buffering
  /// it in memory (obs/sink.h, DESIGN.md §16): events serialize through the
  /// same writer as the buffered path and flush in chunks bounded by
  /// `trace_flush_bytes`, so traces larger than RAM survive sweep-scale
  /// runs and the file is byte-identical to the buffered export of the same
  /// run. Requires obs_trace; empty (default) keeps the buffered path.
  /// When the harness replicates a point (runs > 1), replica r writes to
  /// "<path>.rep<r>".
  std::string trace_stream_path;
  /// Flush watermark for the streaming sink, in bytes: the chunk buffer is
  /// flushed before an append would push it past this bound, so peak
  /// tracer-buffer occupancy stays under max(watermark, longest line).
  int64_t trace_flush_bytes = 1 << 20;
  /// Sampling interval, in simulated time units, for the time-series
  /// metrics registry (obs/metrics.h, DESIGN.md §16): every registered
  /// gauge/counter — lock-table occupancy, lease tables, NIC backlog,
  /// in-flight 2PC, PDES window/stall telemetry — is sampled at each
  /// multiple of the interval and returned in RunResult::metrics.
  /// Observation-only and deterministic at any thread count. 0 (default)
  /// disables sampling.
  SimTime metrics_interval = 0;

  /// Simulated delay of a log force at commit/install; 0 keeps the recovery
  /// substrate free so it does not perturb the reproduced numbers.
  SimTime wal_force_delay = 0;

  /// Abort notices take effect instantly at the victim (default), matching
  /// the paper's model: its round accounting has no abort messages, and its
  /// reported g-2PL gains at ~40% abort rates are only reachable when a
  /// victim's held data starts moving at the abort decision. Setting this
  /// to false charges one network latency for the notice before the victim
  /// forwards anything (the ablation bench quantifies the difference; under
  /// deep contention the extra hop compounds along every wait chain).
  bool instant_abort_notice = true;

  /// Safety horizon: the run reports timed_out instead of spinning forever
  /// if the simulated clock passes this bound. 0 = unlimited.
  SimTime max_sim_time = 0;

  /// Worker threads for intra-run parallelism (--sim-threads, DESIGN.md
  /// §15). 1 (default) runs the legacy single-queue serial engine —
  /// bit-identical to every pre-existing result. N > 1 runs the
  /// conservative per-shard parallel engine (protocols/parsim.h): one
  /// logical process per server shard, windows bounded by the one-way WAN
  /// latency (the natural lookahead), results bit-identical at any thread
  /// count (2, 4, 8, ... all produce the same bytes). The parallel engine
  /// supports the decomposable configuration subset — requester-victim
  /// conflict policies (nowait, waitdie), the classic commit path, no
  /// leases, uniform pure-propagation latency, charged abort notices —
  /// and Validate() rejects the rest (they couple shards through
  /// zero-latency shared state, which has no finite lookahead).
  int32_t sim_threads = 1;

  /// Sanity-checks field ranges; call before running.
  Status Validate() const;
};

/// Shard owning `item` under the configured routing.
inline int32_t ShardOf(const SimConfig& config, ItemId item) {
  if (config.shard_routing == ShardRouting::kRange) {
    const int32_t items_per_shard =
        (config.workload.num_items + config.num_servers - 1) /
        config.num_servers;
    return std::min(item / items_per_shard, config.num_servers - 1);
  }
  return item % config.num_servers;
}

/// Site id of shard `shard`'s server: shard 0 keeps kServerSite, extra
/// shard k >= 1 lives at site num_clients + k.
inline SiteId ServerSiteOf(const SimConfig& config, int32_t shard) {
  return shard == 0 ? kServerSite
                    : static_cast<SiteId>(config.num_clients + shard);
}

/// True for a shard server's site, false for a client's.
inline bool IsServerSite(const SimConfig& config, SiteId site) {
  return site == kServerSite || site > config.num_clients;
}

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_CONFIG_H_
