#ifndef GTPL_PROTOCOLS_ENGINE_H_
#define GTPL_PROTOCOLS_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "db/data_store.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "protocols/config.h"
#include "protocols/metrics.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace gtpl::proto {

/// A cross-server commit with votes outstanding: built when the commit
/// path starts its vote round, dropped when the last vote is tallied or
/// the run dies first.
struct CommitCtx {
  int32_t votes_pending = 0;
  std::vector<int32_t> participants;
  /// Non-speculative prepares still in flight; hits 0 when the last one
  /// arrives, closing the span.commit_prepare sub-span.
  int32_t prepares_pending = 0;
  /// Blocking one-way WAN flights this commit path charges the client's
  /// response time (written to TxnRun::commit_flights on completion).
  int32_t flights = 2;
  /// Where participants address their votes: the client site (classic,
  /// early) or the coordinator server's site (coord).
  SiteId vote_site = 0;
  /// Coordinating shard under kCoord with a remote choice; -1 otherwise.
  int32_t coord_shard = -1;
  /// kClassic ran although another path was configured (certification).
  bool fallback = false;
};

/// kEarly state, built on the run's first request. TxnRun holds it behind a
/// pointer, so the runs of the other commit paths do not carry it.
struct EarlyCtx {
  bool active = false;  // cross-server txn: speculative prepares flow
  /// shard -> index of the last op touching it (send point).
  std::unordered_map<int32_t, size_t> last_touch;
  /// Shards whose speculative yes votes are already home.
  std::unordered_set<int32_t> votes;
  int32_t prepares_sent = 0;
};

/// One in-flight transaction at a client: the paper's system-model record,
/// shared by EngineBase and the parallel engine (protocols/parsim.cc). The
/// parallel engine uses the lifecycle and span fields and, for 2PC, the
/// votes_pending / participants of `commit`; the rest is EngineBase's
/// (doomed, committing, kEarly, kCoord, leases).
struct TxnRun {
  TxnId id = kInvalidTxn;
  int32_t client_index = 0;  // 0-based; site = client_index + 1
  workload::TxnSpec spec;
  size_t current_op = 0;     // op being requested / processed
  SimTime start_time = 0;
  bool doomed = false;       // server decided to abort; notice in flight
  bool finished = false;
  SimTime request_time = 0;  // when the current op's request was issued
  Version pending_version = 0;  // version delivered for the current op
  std::vector<OpRecord> records;
  /// Latency-breakdown span accumulated over the transaction's lifetime
  /// (metrics.h); finalized at commit, unused for aborted transactions.
  TxnSpan span;
  /// Network components of the current op's request flight, captured when
  /// the request reaches the server (NoteRequestAtServer); folded into the
  /// span when the grant comes back.
  SimTime req_prop = 0;
  SimTime req_queue = 0;
  /// Time the current op spent queued behind a lease revocation at the
  /// server (sticky leases only): stamped by the server when the queued
  /// request is finally granted, folded into span.lease_revoke_wait
  /// (clamped to the op's lock wait) when the grant reaches the client.
  SimTime pending_revoke_wait = 0;
  /// When the commit phase started (last op's think elapsed). A vote round
  /// opens in this tick, so it also anchors the commit sub-spans.
  SimTime commit_start = 0;
  /// True once the commit phase started. A committing transaction has no
  /// outstanding request and must never be chosen as an abort victim
  /// (wound-wait checks this through PolicyHost::Woundable).
  bool committing = false;
  /// Blocking one-way WAN flights the commit phase paid: -1 until a
  /// cross-server 2PC path sets it (single-shard commits keep -1).
  int32_t commit_flights = -1;
  /// Cross-server commit with votes outstanding (see CommitCtx).
  std::optional<CommitCtx> commit;
  /// kEarly only: built on the first request.
  std::unique_ptr<EarlyCtx> early;
  /// kCoord: the decision fanned out from a remote coordinator, so lock
  /// engines release at its arrival, ahead of the ack-delayed DoCommit.
  bool decided_remotely = false;
  /// Shards that installed and released ahead of the client's release
  /// message (release_at_prepare, or a remote kCoord decision).
  std::vector<int32_t> released_shards;

  SiteId site() const { return client_index + 1; }
  const workload::Operation& op() const { return spec.ops[current_op]; }
  bool LastOp() const { return current_op + 1 == spec.ops.size(); }
};

/// One client site: its workload generator and the transaction it is
/// running (null before its first transaction begins).
struct ClientState {
  int32_t index = 0;
  std::unique_ptr<workload::WorkloadGenerator> generator;
  std::unique_ptr<TxnRun> current;
  int32_t restart_streak = 0;  // consecutive aborts (drives g-2PL aging)
};

// --- shared transaction bookkeeping ---------------------------------------
// What EngineBase and the parallel engine both record about a transaction.
// Each takes the result (and tracer) to record into: the serial engine's
// single result, or one LP's slice of the parallel engine's.

/// The clients of `config`, in index order, with generator seeds drawn from
/// the run seed in client order.
std::vector<ClientState> MakeClients(const SimConfig& config);

/// A result with the response / op-wait / cross-commit histograms sized
/// from the configured latency, so per-engine and per-LP results merge.
RunResult EmptyResult(const SimConfig& config);

/// Distinct shards of `run`'s completed operations, ascending; of its
/// writes only under `writes_only`. `records` are the prefix of `spec.ops`
/// the run completed, so at the commit point these are its participants
/// (or write shards) and at an abort the shards it may hold locks on.
std::vector<int32_t> ShardsOf(const SimConfig& config, const TxnRun& run,
                              bool writes_only = false);

/// The grant for `run`'s current operation reached the client `wait` after
/// its request left. `propagation` and `queueing` are the request and grant
/// flights' network components; what remains of the wait is the op's lock
/// wait. Records the op wait (when `measured`), adds the components and the
/// op's lease revoke wait to the span, clears the op's request state and
/// emits kLockGrant.
void RecordGrant(TxnRun& run, SimTime wait, SimTime propagation,
                 SimTime queueing, bool measured, RunResult& result,
                 obs::Tracer& tracer);

/// Appends `run`'s current operation to its records.
void RecordOp(TxnRun& run);

/// The last vote of `run`'s 2PC round `ctx` came home at `now`, all yes:
/// closes the vote sub-span (what the prepare sub-span did not absorb of
/// the round), sets the commit's blocking flights, and counts the
/// cross-server commit, its participants, a remote coordinator and a
/// certification fallback (when `measured`).
void RecordVotedCommit(TxnRun& run, const CommitCtx& ctx, SimTime now,
                       bool measured, RunResult& result);

/// `run` committed at `now`: finishes it and closes its commit span, counts
/// the commit, adds its response and span phases (when `measured`), appends
/// its history record (when `record_history`) and emits kTxnCommit.
void RecordCommit(TxnRun& run, SimTime now, bool measured,
                  bool record_history, RunResult& result,
                  obs::Tracer& tracer);

/// The server at `server_site` decided to abort `txn` of the client at
/// `client_site`, `age` after it began and holding `held_ops` operations.
/// Takes values, not a run: the parallel engine decides aborts at a shard,
/// which only has the request's copy of them.
void RecordAbort(TxnId txn, SiteId client_site, SiteId server_site,
                 SimTime age, int64_t held_ops, bool measured,
                 RunResult& result, obs::Tracer& tracer);

/// Trace events of the lifecycle and of 2PC. Each is a no-op when the
/// tracer is disabled.
void EmitTxnBegin(const TxnRun& run, obs::Tracer& tracer);
/// `txn`'s request for `item` reached shard `shard`'s server from the
/// client at `site` (-1 once the run is gone); `propagation` and
/// `queueing` are the request flight's network components.
void EmitLockRequest(TxnId txn, SiteId site, ItemId item, LockMode mode,
                     int32_t shard, SimTime propagation, SimTime queueing,
                     obs::Tracer& tracer);
void EmitPrepare(TxnId txn, int32_t shard, SiteId site, const char* label,
                 obs::Tracer& tracer);
void EmitVote(TxnId txn, int32_t shard, bool yes, obs::Tracer& tracer);
/// `updates` is the number of versions the release installs.
void EmitRelease(TxnId txn, int32_t shard, SiteId site, int64_t updates,
                 const char* label, obs::Tracer& tracer);

/// The one base of every serial protocol engine. It owns:
///  - the per-client transaction lifecycle of the paper's system model
///    (idle U[2,10] -> new transaction -> sequential operations with think
///    U[1,3] after each grant -> commit; aborted transactions are
///    *replaced* by fresh ones), plus metrics, warmup and the stop
///    condition;
///  - routing: the item space is partitioned across `num_servers`
///    simulated data servers by hash (ROADMAP's sharding item),
///    and each request goes to the owning server's site, so every data
///    round pays the WAN latency of net::LatencyModel;
///  - the commit paths. A transaction confined to one shard commits
///    locally (CommitLocally, the commit point, then DoCommit), so
///    `num_servers == 1` is the paper's single-server model with no extra
///    message. One that touched several servers runs the configured
///    protocols/commit.h path (DESIGN.md §13):
///     - kClassic, client-coordinated 2PC: the client fans `prepare` to
///       every participant *in parallel* (one max-RTT, not sum-RTT),
///       collects votes, and on unanimous yes sends the decision and
///       commits locally — two extra WAN flights;
///     - kEarly piggybacks a *speculative* prepare on the last operation
///       touching each shard (PreRequestHook), so the vote overlaps the
///       rest of the execution. Sound because a vote only says "this shard
///       has not aborted the transaction", abort decisions doom a run
///       instantly, and the commit point re-checks !doomed. A speculative
///       vote is no commit promise: it never triggers release-at-prepare
///       (ShardVote's `speculative` flag);
///     - kFastPath commits a transaction whose writes land on one shard
///       with no prepare/vote round: the client's local commit is the
///       commit point and the ordinary release/forward messages carry the
///       decision (the read-only shards still hold their locks);
///     - kCoord picks, per transaction, the client or the server of the
///       write-heaviest participant as coordinator, from the static latency
///       matrix (LatencyModel::BaseLatency, never the jitter stream). A
///       remote coordinator adds handoff and ack legs to the response but
///       delivers the decision to participants sooner, which pays when the
///       server mesh is much faster than the WAN (config().server_latency).
///    A certification engine (OCC) overrides StartCommit, runs kClassic
///    for every configured path and counts commit_path_fallbacks.
///
/// A live commit's state rides on its TxnRun (TxnRun::commit, ::early,
/// ::decided_remotely, ::released_shards) and counts as gone once the run
/// is finished. The run is also the only record of whether a transaction is
/// alive (Dead): no engine keeps a set of aborted ids. State that must
/// outlive the run (g-2PL's forward-list slots) stays keyed by TxnId in the
/// engine and is erased with the transaction's last message.
///
/// Determinism contract (DESIGN.md §8): the servers' *coordination plane*
/// (the shared precedence graph, abort decisions) is modeled
/// as instantaneous, like the paper's zero-cost server reordering; only the
/// data and commit paths pay latency.
///
/// Protocol subclasses implement how requests, local commits, votes and
/// abort cleanup translate into messages and server state.
class EngineBase {
 public:
  explicit EngineBase(const SimConfig& config);
  virtual ~EngineBase() = default;

  EngineBase(const EngineBase&) = delete;
  EngineBase& operator=(const EngineBase&) = delete;

  /// Runs the configured simulation to completion and returns its metrics.
  RunResult Run();

  net::Network& network() { return *network_; }
  sim::Simulator& simulator() { return sim_; }

  int32_t num_servers() const { return config_.num_servers; }

  /// Shard owning `item`, by the configured routing.
  int32_t ShardOf(ItemId item) const { return proto::ShardOf(config_, item); }

  /// Site id of shard `shard`'s server (config.h).
  SiteId ServerSiteOf(int32_t shard) const {
    return proto::ServerSiteOf(config_, shard);
  }

 protected:
  using TxnRun = proto::TxnRun;
  using ClientState = proto::ClientState;

  // --- protocol hooks -------------------------------------------------
  /// Send the lock/data request for `run.op()` to the server.
  virtual void SendRequest(TxnRun& run) = 0;
  /// The transaction committed locally: emit releases / data forwards.
  virtual void DoCommit(TxnRun& run) = 0;
  /// The abort notice reached the client: protocol-specific cleanup.
  virtual void OnClientAborted(TxnRun& run) = 0;
  /// Participant `shard`'s vote on committing `txn`, computed when the
  /// prepare message arrives at the server. `speculative` marks kEarly
  /// prepares sent before the commit point: the vote is advisory ("not
  /// aborted so far"), so engines must NOT take commit-promise actions on
  /// it (e.g. release-at-prepare). The default votes yes unless `txn` is
  /// dead.
  virtual bool ShardVote(int32_t shard, TxnId txn, bool speculative) {
    (void)shard;
    (void)speculative;
    return !Dead(txn);
  }
  /// The commit decision arrived at participant `shard` (phase two); the
  /// base already recorded the event. The default does nothing: the
  /// client's own messages (releases, forwards) carry the work.
  virtual void OnCommitDecision(int32_t shard, TxnId txn) {
    (void)shard;
    (void)txn;
  }
  /// Copy protocol-specific counters into the result.
  virtual void FillProtocolMetrics(RunResult* result) { (void)result; }
  /// The last operation's think time elapsed: begin committing. The default
  /// commits a single-shard transaction locally and runs the configured
  /// commit path across servers; a certification engine overrides it and
  /// calls CommitLocally / ServerAbortDecision asynchronously.
  virtual void StartCommit(TxnRun& run);
  /// Called just before SendRequest for every operation (first and
  /// subsequent). The default piggybacks kEarly's speculative prepare on
  /// the last operation touching each shard.
  virtual void PreRequestHook(TxnRun& run);
  /// Sends the kClassic prepare for `run` to participant `shard`; a
  /// certification engine sends its validation request instead.
  virtual void SendPrepare(int32_t shard, TxnRun& run);
  /// Register this engine's time-series gauges with the metrics registry
  /// (obs/metrics.h; called once before the run when metrics_interval > 0).
  /// The base registers the engine-global series — active transactions,
  /// cumulative commits/aborts, NIC backlog, in-flight 2PC; overrides call
  /// the parent first, then add their own (lock tables, lease state), so
  /// the series order is the class hierarchy's registration order and
  /// identical across runs. Probes must be read-only.
  virtual void RegisterMetrics(obs::MetricsRegistry* metrics);

  /// PreRequestHook + SendRequest — the lifecycle's single entry for
  /// issuing the current operation's request.
  void IssueRequest(TxnRun& run) {
    PreRequestHook(run);
    SendRequest(run);
  }

  // --- services for protocol subclasses -------------------------------
  /// The server decided to abort `txn`: dooms it instantly (it can no longer
  /// commit) and delivers the abort notice to its client after one network
  /// latency. Safe to call for transactions that already finished.
  /// `server_site` is the deciding server (a shard's site in sharded runs).
  void ServerAbortDecision(TxnId txn, SiteId server_site);

  /// Structured observability tracer (obs/trace.h); enabled iff
  /// config.obs_trace. Protocol code emits through it freely — Emit is a
  /// no-op when disabled.
  obs::Tracer& tracer() { return tracer_; }

  /// Called by protocol request handlers when `txn`'s request for `item`
  /// reaches the owning server: captures the request flight's network
  /// components (from the network's current delivery, when one is active)
  /// for span accounting and emits kLockRequest. `shard` is the serving
  /// shard index (0 for single-server engines).
  void NoteRequestAtServer(TxnId txn, ItemId item, LockMode mode,
                           int32_t shard = 0);

  /// Data/grant for the current operation of `run` arrived: think, record
  /// the access, then issue the next request or commit.
  void OpGranted(TxnRun& run, Version version_read);

  ClientState& ClientAt(int32_t index) { return clients_[index]; }
  int32_t num_clients() const { return static_cast<int32_t>(clients_.size()); }

  /// Current run of `txn`'s client iff it is still running `txn`.
  TxnRun* FindRun(TxnId txn) const;

  /// True when `txn` has no run any more or its run is doomed: it waits for
  /// nothing and is never granted, voted for or counted as a blocker again.
  /// Transaction ids are never reused. A late request or prepare comes from
  /// a transaction that cannot have committed, so there "gone" means
  /// "aborted".
  bool Dead(TxnId txn) const {
    const TxnRun* run = FindRun(txn);
    return run == nullptr || run->doomed;
  }

  const SimConfig& config() const { return config_; }
  db::DataStore& store() { return *store_; }
  bool measuring() const {
    return result_.total_commits >= config_.warmup_txns;
  }

  /// The client's local commit, the commit point: records the commit
  /// (metrics, history), runs DoCommit and schedules the client's next
  /// transaction. Every commit path ends here.
  void CommitLocally(TxnRun& run);

  /// kClassic from the coordinator's side: SendPrepare to every
  /// participant. `fallback` marks a certification commit standing in for
  /// another configured path.
  void StartClassic(TxnRun& run, std::vector<int32_t> participants,
                    bool fallback = false);

  /// A non-speculative prepare reached its participant: counts it against
  /// the live commit context of `run`, whose last prepare closes the
  /// span.commit_prepare sub-span. Returns where the vote goes: the
  /// context's vote site, or the client once the context is gone.
  SiteId PrepareLanded(TxnRun& run);

  /// Participant `shard`'s vote on `txn` reached the vote site.
  void OnVoteArrived(TxnId txn, int32_t shard, bool yes);

 private:
  void BeginTxn(ClientState& client);
  void ScheduleNextTxn(ClientState& client);
  void FinishOp(TxnRun& run);
  void AbortNoticeArrived(TxnId txn, int32_t client_index);

  // --- commit paths (protocols/commit.cc) ------------------------------
  void StartEarly(TxnRun& run, std::vector<int32_t> participants);
  void StartFastPath(TxnRun& run, const std::vector<int32_t>& participants);
  void StartCoord(TxnRun& run, std::vector<int32_t> participants,
                  int32_t coord_shard);
  /// kCoord's placement decision: the write-heaviest participant's shard if
  /// coordinating there beats the client on (response cost, lock-hold lag),
  /// else -1 for the client. Deterministic: consults only BaseLatency.
  int32_t ChooseCoordinator(const TxnRun& run,
                            const std::vector<int32_t>& participants);
  void OnPrepareArrived(int32_t shard, TxnId txn, bool speculative);
  void OnDecisionArrived(int32_t shard, TxnId txn);
  /// kCoord: the client's handoff reached the coordinator server; it fans
  /// the prepares (its own shard prepares locally, votes inline).
  void OnHandoffArrived(int32_t coord_shard, TxnId txn);
  /// kCoord: the coordinator's commit ack reached the client.
  void OnAckArrived(TxnId txn);
  /// All votes are in: drop the context, fan the decisions, finish the
  /// commit (or send the ack leg when a remote coordinator ran the rounds).
  void FinishVotedCommit(TxnRun& run);

  SimConfig config_;
  sim::Simulator sim_;
  obs::Tracer tracer_;
  /// Streaming trace sink (trace_stream_path only; the tracer then streams
  /// through it instead of buffering — DESIGN.md §16).
  std::unique_ptr<obs::StreamSink> trace_sink_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<db::DataStore> store_;
  std::vector<ClientState> clients_;
  std::unordered_map<TxnId, int32_t> txn_client_;  // active txns only
  TxnId next_txn_id_ = 1;
  RunResult result_;
};

/// Runs one simulation with the given configuration (validates first).
/// Defined in cc/registry.cc: the engine is resolved through the cc
/// registry, so every registered protocol runs through the same entry.
RunResult RunSimulation(const SimConfig& config);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_ENGINE_H_
