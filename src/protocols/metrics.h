#ifndef GTPL_PROTOCOLS_METRICS_H_
#define GTPL_PROTOCOLS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/histogram.h"
#include "stats/welford.h"

namespace gtpl::proto {

/// One executed operation with the data versions it observed/produced.
struct OpRecord {
  ItemId item = kInvalidItem;
  LockMode mode = LockMode::kShared;
  Version version_read = 0;
  Version version_written = 0;  // 0 for reads
};

/// Decomposition of one committed transaction's response time into
/// lifecycle phases (DESIGN.md §11). The phases are exhaustive and
/// disjoint: lock_wait + propagation + queueing + execution + commit equals
/// commit_time - start_time exactly (span_accounting_test pins this for
/// every protocol, sharded and unsharded, with and without the link model).
struct TxnSpan {
  /// Server-side waiting: request arrival -> grant departure (residual of
  /// each operation's round after subtracting the network components).
  SimTime lock_wait = 0;
  /// Pure propagation of the request and grant/data flights.
  SimTime propagation = 0;
  /// Transmission delay + NIC queueing of those flights (0 under the
  /// paper's pure-propagation model).
  SimTime queueing = 0;
  /// Client think time after each granted operation.
  SimTime execution = 0;
  /// Commit phase: WAL force, 2PC prepare + vote rounds, certification.
  SimTime commit = 0;

  /// Per-round decomposition of `commit` for cross-server 2PC commits
  /// (both 0 otherwise, and 0 when a variant removed the round). The
  /// prepare round runs fan-out to the last prepare arrival at a
  /// participant (under kCoord it includes the handoff leg); the vote
  /// round runs from there until the coordinator tallied every vote. Both
  /// are measured from the commit start. What remains of `commit` is
  /// CommitResidual(): under kCoord, the ack leg back to the client; for
  /// a single-shard commit, the whole phase. Always:
  ///   0 <= commit_prepare, 0 <= commit_vote,
  ///   commit_prepare + commit_vote <= commit
  /// (span_accounting_test pins this for every engine x commit path).
  SimTime commit_prepare = 0;
  SimTime commit_vote = 0;

  /// Sub-span of `lock_wait`: the part of this transaction's server-side
  /// waiting spent queued behind lease revocations (sticky leases only;
  /// DESIGN.md §14). Always 0 <= lease_revoke_wait <= lock_wait, and it
  /// does not enter Total() — revoke latency is an attribution of the
  /// lock-wait phase, not a sixth phase.
  SimTime lease_revoke_wait = 0;

  SimTime CommitResidual() const {
    return commit - commit_prepare - commit_vote;
  }

  SimTime Total() const {
    return lock_wait + propagation + queueing + execution + commit;
  }
};

/// A committed transaction, for post-hoc serializability verification.
struct CommittedTxn {
  TxnId id = kInvalidTxn;
  SiteId client = 0;
  SimTime start_time = 0;
  SimTime commit_time = 0;
  TxnSpan span;
  std::vector<OpRecord> ops;
  /// Blocking one-way WAN flights the commit phase paid: -1 for
  /// single-shard commits (no 2PC), else the per-variant count the
  /// round-count battery asserts against ExpectedCommitFlights.
  int32_t commit_flights = -1;
};

/// Everything a single simulation run produces.
struct RunResult {
  /// Response time over committed transactions in the measured phase.
  stats::Welford response;
  /// Per-operation wait: request issued -> data/grant available (all
  /// transactions, measured phase).
  stats::Welford op_wait;
  /// Age (time since start) and completed ops of transactions at the moment
  /// the server decided to abort them (measured phase) - wasted occupancy.
  stats::Welford abort_age;
  stats::Welford abort_held_items;
  /// Messages each committed transaction's lifetime overlapped is not
  /// meaningful per-txn; we track total network traffic instead.
  net::NetworkStats network;
  /// Busy fraction of the busiest NIC over the run (finite-bandwidth link
  /// model only; 0 under pure propagation). Can exceed 1 when overloaded.
  double max_link_utilization = 0.0;
  /// 99th percentile of per-message total queueing delay (sender uplink +
  /// receiver downlink waits; link model with nic_queue only).
  double queue_delay_p99 = 0.0;

  /// Latency-breakdown spans over committed transactions in the measured
  /// phase (each Welford averages one TxnSpan phase; the five means sum to
  /// response.mean()).
  stats::Welford span_lock_wait;
  stats::Welford span_propagation;
  stats::Welford span_queueing;
  stats::Welford span_execution;
  stats::Welford span_commit;
  /// Per-round commit sub-spans (TxnSpan::commit_prepare / commit_vote),
  /// over the same committed transactions; nonzero only for cross-server
  /// 2PC commits, so the attribution tables can show exactly which round
  /// each commit-path variant removes.
  stats::Welford span_commit_prepare;
  stats::Welford span_commit_vote;
  /// Lease revoke-wait sub-span of lock_wait (TxnSpan::lease_revoke_wait),
  /// over the same committed transactions; nonzero only under sticky
  /// leases, attributing exactly how much of the lock-wait phase was spent
  /// waiting for callback revocations to drain.
  stats::Welford span_lease_revoke;

  /// Full distributions behind the Welford means: committed-transaction
  /// response times and per-operation waits (measured phase). Sized by the
  /// engine from the configured latency.
  stats::Histogram response_hist;
  stats::Histogram op_wait_hist;
  /// Commit-phase span distribution of *cross-server* commits only
  /// (measured phase) — the p50 the commit bench attributes per variant.
  stats::Histogram xcommit_span_hist;

  int64_t commits = 0;         // measured phase
  int64_t aborts = 0;          // measured phase
  int64_t total_commits = 0;   // including warmup
  int64_t total_aborts = 0;    // including warmup

  uint64_t events = 0;
  SimTime end_time = 0;
  bool timed_out = false;

  // Parallel-engine telemetry (sim_threads > 1 only; empty/0 under the
  // serial engine, DESIGN.md §15). `shard_events` is the per-LP event
  // count (its imbalance bounds the speedup); `sync_windows` counts
  // conservative synchronization windows, `sync_stalls` the (LP, window)
  // pairs where an LP had nothing below the horizon and only waited at
  // the barrier.
  std::vector<uint64_t> shard_events;
  uint64_t sync_windows = 0;
  uint64_t sync_stalls = 0;

  // g-2PL specifics (0 for other protocols).
  int64_t windows_dispatched = 0;
  double mean_forward_list_length = 0.0;
  int64_t read_group_expansions = 0;

  // Adaptive collection-window controller (g-2PL with
  // g2pl.adaptive_window; all 0 otherwise). `mean_effective_cap` averages
  // the cap consulted at every window dispatch; `final_effective_cap`
  // averages the end-of-run cap over items that dispatched at least one
  // window; the counters tally caps that actually moved.
  double mean_effective_cap = 0.0;
  double final_effective_cap = 0.0;
  int64_t cap_increases = 0;
  int64_t cap_decreases = 0;

  // Sharding specifics (0 / empty unless num_servers > 1). A commit is
  // cross-server when the transaction touched items on more than one
  // server and therefore ran the two-phase commit path.
  int64_t cross_server_commits = 0;  // measured phase
  /// Participant servers per cross-server commit (measured phase).
  stats::Welford commit_participants;

  // Commit-path telemetry (protocols/commit.h; all 0 under kClassic /
  // unsharded runs, measured phase).
  /// Blocking one-way WAN flights per cross-server commit.
  stats::Welford commit_flights;
  /// Cross-server commits that took the single-write-shard fast path.
  int64_t fastpath_commits = 0;
  /// Speculative prepares sent ahead of the commit point (kEarly).
  int64_t early_prepares = 0;
  /// Cross-server commits coordinated by a server instead of the client
  /// (kCoord chose the write-heaviest participant's site).
  int64_t coord_remote_commits = 0;
  /// Cross-server commits that fell back to the classic path because the
  /// engine runs its own certification commit (OCC).
  int64_t commit_path_fallbacks = 0;

  // Sticky-lease telemetry (lease/lease.h; all 0 under --lease=none).
  // Counted over the WHOLE run, not just the measured phase, so they match
  // the trace event counts exactly (the lease tests assert this). A lease
  // hit is a lock acquisition served entirely from the client's LeaseCache
  // (zero network flights); revokes and releases count the callback
  // messages the server sent / applied.
  int64_t lease_hits = 0;
  int64_t lease_revokes = 0;
  int64_t lease_releases = 0;

  // Recovery substrate counters. `wal_retained` is the number of log
  // records still held at end of run; garbage collection (triggered when
  // updates become permanent at the server) keeps it far below appends.
  int64_t wal_appends = 0;
  int64_t wal_forces = 0;
  int64_t wal_retained = 0;

  /// Committed-transaction history (only when record_history was set).
  std::vector<CommittedTxn> history;

  /// Structured observability trace (only when obs_trace was set); see
  /// obs/trace.h and DESIGN.md §11. Deterministic: byte-identical across
  /// reruns of the same seed at any worker count. Empty when the trace was
  /// streamed to a file instead (trace_stream_path, DESIGN.md §16).
  std::vector<obs::TraceEvent> obs_trace;

  /// Streaming-sink telemetry (trace_stream_path only; 0 otherwise): bytes
  /// written and the peak chunk-buffer occupancy — the bounded-memory
  /// acceptance check asserts peak stays under the flush watermark.
  int64_t trace_stream_bytes = 0;
  int64_t trace_peak_buffer = 0;
  /// True when the streamed trace file could not be written in full (a
  /// failed write such as a full disk); the file is then incomplete.
  bool trace_write_failed = false;

  /// Time-series metric samples (only when metrics_interval > 0); see
  /// obs/metrics.h and DESIGN.md §16. `metric_names` maps MetricRow::series
  /// to series names. Deterministic: the CSV export is byte-identical
  /// across reruns of the same seed at any thread count.
  std::vector<obs::MetricRow> metrics;
  std::vector<std::string> metric_names;

  /// Aborted / (aborted + committed) in the measured phase, in percent —
  /// the quantity plotted in the paper's Figures 8-15.
  double AbortPercent() const;

  /// Committed transactions per 1000 time units (throughput).
  double Throughput() const;
};

/// Builds the serialization graph of `history` (version-order, reads-from
/// and read-before-overwrite edges) and returns true iff it is acyclic —
/// i.e., the execution was (view-)serializable. Used by property tests for
/// every protocol.
bool HistoryIsSerializable(const std::vector<CommittedTxn>& history,
                           std::string* explanation = nullptr);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_METRICS_H_
