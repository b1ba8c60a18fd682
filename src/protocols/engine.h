#ifndef GTPL_PROTOCOLS_ENGINE_H_
#define GTPL_PROTOCOLS_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "db/data_store.h"
#include "db/wal.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "protocols/config.h"
#include "protocols/metrics.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace gtpl::proto {

/// Shared client-side machinery of every protocol engine: the per-client
/// transaction lifecycle of the paper's system model (idle U[2,10] -> new
/// transaction -> sequential operations with think U[1,3] after each grant
/// -> commit; aborted transactions are *replaced* by fresh ones), plus
/// metrics, warmup handling, and the stop condition.
///
/// Protocol subclasses implement how requests, commits, and abort cleanup
/// translate into messages and server state.
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

 protected:
  /// One in-flight transaction at a client.
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
    /// When the commit phase started (last op's think elapsed).
    SimTime commit_start = 0;
    /// True once the commit phase started. A committing transaction has no
    /// outstanding request and must never be chosen as an abort victim
    /// (wound-wait checks this through PolicyHost::Woundable).
    bool committing = false;
    /// Blocking one-way WAN flights the commit phase paid: -1 until a
    /// cross-server 2PC path sets it (single-shard commits keep -1).
    int32_t commit_flights = -1;

    SiteId site() const { return client_index + 1; }
    const workload::Operation& op() const { return spec.ops[current_op]; }
    bool LastOp() const { return current_op + 1 == spec.ops.size(); }
  };

  struct ClientState {
    int32_t index = 0;
    std::unique_ptr<workload::WorkloadGenerator> generator;
    std::unique_ptr<TxnRun> current;
    int32_t restart_streak = 0;  // consecutive aborts (drives g-2PL aging)
    std::unique_ptr<db::WriteAheadLog> wal;
  };

  // --- protocol hooks -------------------------------------------------
  /// Send the lock/data request for `run.op()` to the server.
  virtual void SendRequest(TxnRun& run) = 0;
  /// The transaction committed locally: emit releases / data forwards.
  virtual void DoCommit(TxnRun& run) = 0;
  /// The abort notice reached the client: protocol-specific cleanup.
  virtual void OnClientAborted(TxnRun& run) = 0;
  /// Copy protocol-specific counters into the result.
  virtual void FillProtocolMetrics(RunResult* result) { (void)result; }
  /// The last operation's think time elapsed: begin committing. The default
  /// forces the client WAL and finalizes immediately (pessimistic
  /// protocols); optimistic protocols override to run certification and
  /// call FinalizeCommit / ServerAbortDecision asynchronously.
  virtual void StartCommit(TxnRun& run);
  /// Called just before SendRequest for every operation (first and
  /// subsequent). Default no-op; the kEarly commit path piggybacks
  /// speculative prepares on the last operation touching each shard here.
  virtual void PreRequestHook(TxnRun& run) { (void)run; }
  /// The run ended (committed or the abort notice arrived): drop any
  /// per-transaction bookkeeping. Default no-op.
  virtual void OnTxnClosed(const TxnRun& run) { (void)run; }
  /// Register this engine's time-series gauges with the metrics registry
  /// (obs/metrics.h; called once before the run when metrics_interval > 0).
  /// The base registers the engine-global series — active transactions,
  /// cumulative commits/aborts, NIC backlog; overrides call the parent
  /// first, then add their own (lock tables, lease state, in-flight 2PC),
  /// so the series order is the class hierarchy's registration order and
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
  void ServerAbortDecision(TxnId txn, SiteId client_site,
                           SiteId server_site = kServerSite);

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

  /// Client whose site id is `site`.
  ClientState& ClientOfSite(SiteId site);
  ClientState& ClientAt(int32_t index) { return clients_[index]; }
  int32_t num_clients() const { return static_cast<int32_t>(clients_.size()); }

  /// Current run of `txn`'s client iff it is still running `txn`.
  TxnRun* FindRun(TxnId txn);

  const SimConfig& config() const { return config_; }
  db::DataStore& store() { return *store_; }
  db::WriteAheadLog& server_wal() { return *server_wal_; }
  RunResult& result() { return result_; }
  bool measuring() const {
    return result_.total_commits >= config_.warmup_txns;
  }

  /// Records the commit (metrics, history), emits DoCommit, and schedules
  /// the client's next transaction. Callable asynchronously by protocols
  /// whose commit point is decided at the server (certification).
  void FinalizeCommit(TxnRun& run);

  /// Client-log garbage collection (the paper's recovery assumption: "each
  /// site uses WAL and garbage collects its log once the data are made
  /// permanent at the server"). Protocol code calls this after installing
  /// new versions; any client whose oldest committed updates are now all
  /// permanent truncates its log prefix.
  void MaybeGcClientLogs();

 private:
  void BeginTxn(ClientState& client);
  void ScheduleNextTxn(ClientState& client);
  void FinishOp(TxnRun& run);
  void AbortNoticeArrived(TxnId txn, int32_t client_index);

  /// One committed transaction's log footprint awaiting permanence.
  struct PendingGc {
    int64_t lsn = 0;  // client log prefix covered by this transaction
    std::vector<std::pair<ItemId, Version>> updates;
  };

  SimConfig config_;
  sim::Simulator sim_;
  obs::Tracer tracer_;
  /// Streaming trace sink (trace_stream_path only; the tracer then streams
  /// through it instead of buffering — DESIGN.md §16).
  std::unique_ptr<obs::StreamSink> trace_sink_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<db::DataStore> store_;
  std::unique_ptr<db::WriteAheadLog> server_wal_;
  std::vector<ClientState> clients_;
  std::vector<std::deque<PendingGc>> gc_queues_;  // one per client
  std::vector<int32_t> gc_pending_clients_;  // clients with non-empty queues
  std::unordered_map<TxnId, int32_t> txn_client_;  // active txns only
  TxnId next_txn_id_ = 1;
  int64_t measured_commits_ = 0;
  RunResult result_;
};

/// Runs one simulation with the given configuration (validates first).
/// Defined in cc/registry.cc: the engine is resolved through the cc
/// registry, so every registered protocol runs through the same entry.
RunResult RunSimulation(const SimConfig& config);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_ENGINE_H_
