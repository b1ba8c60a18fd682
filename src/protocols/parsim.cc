// Conservative per-shard parallel engine (DESIGN.md §15).
//
// Topology: LP s owns server shard s (lock table, data store, WAL) and the
// clients with index % num_servers == s. All state is partitioned by LP;
// an event only ever touches its own LP's slice, and every cross-LP
// interaction is a sim::ShardSim channel message of exactly one WAN
// latency (the lookahead). Metrics accumulate into per-LP RunResult slices
// merged in LP order after the run — so the whole simulation is
// bit-identical at any thread count.
//
// The transaction record (TxnRun, ClientState), the client setup, the
// routing and the commit / abort / grant / op accounting are shared with
// the serial engines (protocols/engine.h). This file keeps what is
// parallel by design — striped ids, per-LP result slices and tracers,
// barrier-latched warmup and stop, the message model — and the
// nowait / wait-die rule.

#include "protocols/parsim.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "db/lock_table.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "protocols/engine.h"
#include "sim/parallel.h"

namespace gtpl::proto {
namespace {

class ParallelEngine {
 public:
  explicit ParallelEngine(const SimConfig& config);
  RunResult Run();

 private:
  // A TxnRun here never needs `doomed` or `committing`: a requester-victim
  // abort always rides the reply to the one outstanding request, so no
  // stale message can reach a finished run.

  /// A shard's server: the same lock table, data store and WAL as a serial
  /// engine's shard (its store spans the item space; only own items move).
  struct Shard {
    std::unique_ptr<db::LockTable> locks;
    std::unique_ptr<db::DataStore> store;
    std::unique_ptr<db::WriteAheadLog> wal;
  };

  int32_t num_shards() const { return config_.num_servers; }
  int32_t LpOfClient(int32_t client) const { return client % num_shards(); }

  /// Counts the message in the SENDER's slice and parks it on the channel.
  void SendMsg(int32_t src_lp, int32_t dst_lp, SiteId from, SiteId to,
               uint64_t payload, std::function<void()> action);

  // --- client-LP handlers ---------------------------------------------
  void BeginTxn(int32_t client_index);
  void IssueRequest(ClientState& client);
  void ClientOnGrant(int32_t client_index, TxnId txn, ItemId item,
                     Version version);
  void FinishOp(int32_t client_index, TxnId txn);
  void StartCommit(ClientState& client);
  void StartLocalCommit(ClientState& client);
  void SendReleases(ClientState& client);
  void ClientOnVote(int32_t client_index, TxnId txn, int32_t voting_shard);
  void ClientOnAbortNotice(int32_t client_index, TxnId txn,
                           int32_t deciding_shard);
  void ScheduleNextTxn(ClientState& client);

  // --- shard-LP handlers ----------------------------------------------
  void ServerOnRequest(int32_t shard, TxnId txn, int32_t client_index,
                       ItemId item, LockMode mode, SimTime txn_start,
                       int64_t held_ops);
  void SendGrant(int32_t shard, TxnId txn, ItemId item);
  void ServerOnPrepare(int32_t shard, TxnId txn, int32_t client_index);
  void ServerOnRelease(int32_t shard, TxnId txn,
                       std::vector<db::ItemVersion> updates);
  void ServerOnAbortRelease(int32_t shard, TxnId txn);
  /// Drops every lock `txn` holds on `shard` and sends the grants the
  /// release unblocks.
  void ReleaseLocks(int32_t shard, TxnId txn);

  // --- observability (DESIGN.md §16) ----------------------------------
  obs::Tracer& TracerOf(int32_t lp) {
    return *tracers_[static_cast<size_t>(lp)];
  }
  /// Emits every metrics_interval crossing strictly below `horizon` (the
  /// completed window's horizon). Probe state and the crossing sequence are
  /// barrier state — thread-count-invariant, so the series is deterministic.
  void SampleMetricsBelow(SimTime horizon);

  SimConfig config_;
  SimTime latency_;
  bool wait_die_;
  std::unique_ptr<sim::ParallelSim> psim_;
  std::vector<ClientState> clients_;
  /// Transactions each client has begun: stripes its next txn id.
  std::vector<int64_t> started_txns_;
  std::vector<Shard> shards_;
  /// One Tracer per LP, enabled under obs_trace only: events stamp the
  /// owning LP's clock and a dense per-LP seq; merger_ re-orders them into
  /// the global (time, lp, per-LP seq) stream at window barriers —
  /// byte-identical at any thread count, and to the same run at
  /// sim_threads == 1.
  std::vector<std::unique_ptr<obs::Tracer>> tracers_;
  std::unique_ptr<obs::StreamSink> trace_sink_;
  std::unique_ptr<obs::TraceMerger> merger_;
  /// Time-series gauges (metrics_interval > 0 only), sampled from the
  /// barrier hook; see SampleMetricsBelow.
  obs::MetricsRegistry metrics_;
  SimTime next_sample_ = 0;
  /// Per-LP metric slices (merged in LP order after the run).
  std::vector<RunResult> slices_;
  /// Global warmup flag, latched in the window-barrier hook on a snapshot
  /// of the per-LP commit counters: written only between windows (the
  /// pool barrier provides the happens-before edges), read by LP events
  /// during windows — every LP of a window sees the same value, at any
  /// thread count.
  bool measuring_ = false;
};

ParallelEngine::ParallelEngine(const SimConfig& config)
    : config_(config),
      latency_(config.latency),
      wait_die_(config.protocol == Protocol::kWaitDie) {
  psim_ = std::make_unique<sim::ParallelSim>(num_shards(), latency_,
                                             config.sim_threads);
  shards_.resize(static_cast<size_t>(num_shards()));
  for (Shard& shard : shards_) {
    shard.locks = std::make_unique<db::LockTable>(config.workload.num_items);
    shard.store = std::make_unique<db::DataStore>(config.workload.num_items);
    shard.wal = std::make_unique<db::WriteAheadLog>();
  }
  // One at a time: a temporary to copy from would hold a fourth set of
  // histograms at the peak.
  for (int32_t i = 0; i < num_shards(); ++i) {
    slices_.push_back(EmptyResult(config));
  }
  // The seeder discipline of EngineBase, so client c's draw stream does
  // not depend on the shard count.
  clients_ = MakeClients(config);
  started_txns_.assign(static_cast<size_t>(config.num_clients), 0);
  // The shared recorders emit into a tracer, so every LP has one; only
  // obs_trace enables them and merges their streams.
  std::vector<obs::Tracer*> lps;
  tracers_.reserve(static_cast<size_t>(num_shards()));
  for (int32_t i = 0; i < num_shards(); ++i) {
    auto tracer = std::make_unique<obs::Tracer>();
    tracer->AttachClock([this, i] { return psim_->lp(i).Now(); });
    if (config.obs_trace) tracer->Enable();
    lps.push_back(tracer.get());
    tracers_.push_back(std::move(tracer));
  }
  if (config.obs_trace) {
    merger_ = std::make_unique<obs::TraceMerger>(std::move(lps));
    if (!config.trace_stream_path.empty()) {
      trace_sink_ = std::make_unique<obs::StreamSink>(
          config.trace_stream_path, config.trace_flush_bytes);
      GTPL_CHECK(trace_sink_->ok())
          << "cannot open trace stream " << config.trace_stream_path;
      merger_->SetSink(trace_sink_.get());
    }
  }
  if (config.metrics_interval > 0) {
    next_sample_ = config.metrics_interval;
    // Per-shard protocol gauges first (shard-major, fixed series order),
    // then the kernel's window/stall telemetry as global series — the
    // registration order is the file's series order.
    for (int32_t s = 0; s < num_shards(); ++s) {
      metrics_.Register("active_txns", s, [this, s] {
        int64_t active = 0;
        for (const ClientState& client : clients_) {
          if (LpOfClient(client.index) != s) continue;
          if (client.current != nullptr && !client.current->finished) {
            ++active;
          }
        }
        return active;
      });
      metrics_.Register("commits_total", s, [this, s] {
        return slices_[static_cast<size_t>(s)].total_commits;
      });
      metrics_.Register("aborts_total", s, [this, s] {
        return slices_[static_cast<size_t>(s)].total_aborts;
      });
      metrics_.Register("locks_held", s, [this, s] {
        return shards_[static_cast<size_t>(s)].locks->TotalHeld();
      });
      metrics_.Register("lock_waiters", s, [this, s] {
        return shards_[static_cast<size_t>(s)].locks->TotalWaiters();
      });
    }
    metrics_.Register("sync_windows", -1, [this] {
      return static_cast<int64_t>(psim_->running_stats().windows);
    });
    metrics_.Register("sync_stalls", -1, [this] {
      return static_cast<int64_t>(psim_->running_stats().stalls);
    });
  }
}

void ParallelEngine::SampleMetricsBelow(SimTime horizon) {
  if (config_.metrics_interval <= 0) return;
  while (next_sample_ < horizon) {
    metrics_.SampleAll(next_sample_);
    next_sample_ += config_.metrics_interval;
  }
}

void ParallelEngine::SendMsg(int32_t src_lp, int32_t dst_lp, SiteId from,
                             SiteId to, uint64_t payload,
                             std::function<void()> action) {
  slices_[static_cast<size_t>(src_lp)].network.Count(
      IsServerSite(config_, from), IsServerSite(config_, to), payload);
  psim_->lp(src_lp).SendTo(dst_lp, latency_, std::move(action));
}

// ---------------------------------------------------------------------------
// Client lifecycle (runs on the client's LP)

void ParallelEngine::BeginTxn(int32_t client_index) {
  ClientState& client = clients_[static_cast<size_t>(client_index)];
  auto run = std::make_unique<TxnRun>();
  // Striped ids: globally unique, deterministic at any thread/shard
  // placement, and monotone per client — a valid wait-die age order.
  int64_t& started = started_txns_[static_cast<size_t>(client_index)];
  run->id = started * config_.num_clients + client_index + 1;
  ++started;
  run->client_index = client_index;
  run->spec = client.generator->NextTxn();
  run->spec.id = run->id;
  const int32_t lp = LpOfClient(client_index);
  const SimTime now = psim_->lp(lp).Now();
  run->start_time = now;
  run->request_time = now;
  client.current = std::move(run);
  EmitTxnBegin(*client.current, TracerOf(lp));
  IssueRequest(client);
}

void ParallelEngine::IssueRequest(ClientState& client) {
  TxnRun& run = *client.current;
  const workload::Operation op = run.op();
  const int32_t shard = ShardOf(config_, op.item);
  const int32_t src_lp = LpOfClient(client.index);
  // The request carries everything the shard needs for a requester-victim
  // abort decision (age metrics) — the shard never reads client state.
  SendMsg(src_lp, shard, run.site(), ServerSiteOf(config_, shard),
          net::kControlPayload,
          [this, shard, txn = run.id, client_index = client.index,
           item = op.item, mode = op.mode, txn_start = run.start_time,
           held_ops = static_cast<int64_t>(run.records.size())] {
            ServerOnRequest(shard, txn, client_index, item, mode, txn_start,
                            held_ops);
          });
}

void ParallelEngine::ClientOnGrant(int32_t client_index, TxnId txn,
                                   ItemId item, Version version) {
  ClientState& client = clients_[static_cast<size_t>(client_index)];
  TxnRun* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  GTPL_CHECK_EQ(run->op().item, item);
  const int32_t lp_index = LpOfClient(client_index);
  sim::ShardSim& lp = psim_->lp(lp_index);
  // Uniform pure propagation: the request and grant flights each took
  // exactly one latency; the residual is server-side lock wait.
  RecordGrant(*run, lp.Now() - run->request_time, 2 * latency_, 0,
              measuring_, slices_[static_cast<size_t>(lp_index)],
              TracerOf(lp_index));
  run->pending_version = version;
  const SimTime think = client.generator->SampleThink();
  run->span.execution += think;
  lp.Schedule(think, [this, client_index, txn] { FinishOp(client_index, txn); });
}

void ParallelEngine::FinishOp(int32_t client_index, TxnId txn) {
  ClientState& client = clients_[static_cast<size_t>(client_index)];
  TxnRun* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  RecordOp(*run, *client.wal);
  const SimTime now = psim_->lp(LpOfClient(client_index)).Now();
  if (run->LastOp()) {
    run->commit_start = now;
    StartCommit(client);
    return;
  }
  ++run->current_op;
  run->request_time = now;
  IssueRequest(client);
}

void ParallelEngine::StartCommit(ClientState& client) {
  TxnRun& run = *client.current;
  std::vector<int32_t> participants = ShardsOf(config_, run);
  if (participants.size() <= 1) {
    // Single-shard commit: the ordinary local commit point, then one
    // release message (commit_flights stays -1, like the serial engines).
    StartLocalCommit(client);
    return;
  }
  // Classic client-coordinated 2PC: force the coordinator's prepare
  // record, fan prepares out, collect votes, then commit locally — the
  // decision rides the release messages (2 blocking flights).
  CommitCtx& ctx = run.commit.emplace();
  ctx.votes_pending = static_cast<int32_t>(participants.size());
  ctx.participants = std::move(participants);
  client.wal->Force(client.wal->Append());
  const int32_t lp = LpOfClient(client.index);
  for (int32_t shard : ctx.participants) {
    SendMsg(lp, shard, run.site(), ServerSiteOf(config_, shard),
            net::kControlPayload,
            [this, shard, txn = run.id, client_index = client.index] {
              ServerOnPrepare(shard, txn, client_index);
            });
  }
}

void ParallelEngine::StartLocalCommit(ClientState& client) {
  TxnRun& run = *client.current;
  client.wal->Force(client.wal->Append());  // the commit record
  const int32_t lp = LpOfClient(client.index);
  RecordCommit(run, psim_->lp(lp).Now(), measuring_, config_.record_history,
               slices_[static_cast<size_t>(lp)], TracerOf(lp));
  SendReleases(client);
  // Client-log GC at the local commit (documented simplification of the
  // serial engines' server-acknowledged truncation): the commit's installs
  // are on their way and will be permanent before any dependent read.
  client.wal->Checkpoint();
  ScheduleNextTxn(client);
}

void ParallelEngine::ServerOnPrepare(int32_t shard, TxnId txn,
                                     int32_t client_index) {
  // A committing transaction has no blocked request, so it can never be an
  // abort victim (requester-victim subset): the vote is always yes. The
  // participant forces its own prepare record before voting.
  Shard& state = shards_[static_cast<size_t>(shard)];
  EmitPrepare(txn, shard, ServerSiteOf(config_, shard), "", TracerOf(shard));
  state.wal->Force(state.wal->Append());
  SendMsg(shard, LpOfClient(client_index), ServerSiteOf(config_, shard),
          client_index + 1, net::kControlPayload, [this, client_index, txn,
                                                  shard] {
            ClientOnVote(client_index, txn, shard);
          });
}

void ParallelEngine::ClientOnVote(int32_t client_index, TxnId txn,
                                  int32_t voting_shard) {
  ClientState& client = clients_[static_cast<size_t>(client_index)];
  TxnRun* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  const int32_t lp = LpOfClient(client_index);
  // Requester-victim subset: votes are always yes.
  EmitVote(txn, voting_shard, true, TracerOf(lp));
  GTPL_CHECK(run->commit && run->commit->votes_pending > 0)
      << "vote for txn " << txn << " outside its 2PC round";
  CommitCtx& ctx = *run->commit;
  if (--ctx.votes_pending > 0) return;
  // All votes home. Under uniform latency the last prepare landed exactly
  // one latency after the fan-out; the rest of the round is the vote leg.
  run->span.commit_prepare = latency_;
  RecordVotedCommit(*run, ctx, psim_->lp(lp).Now(), measuring_,
                    slices_[static_cast<size_t>(lp)]);
  run->commit.reset();
  StartLocalCommit(client);
}

void ParallelEngine::SendReleases(ClientState& client) {
  TxnRun& run = *client.current;
  // One release per participant shard carrying that shard's installs —
  // phase two of a cross-shard commit (the decision rides along), or the
  // single release message of a single-shard commit.
  std::vector<std::vector<db::ItemVersion>> updates_by(
      static_cast<size_t>(num_shards()));
  for (const OpRecord& record : run.records) {
    if (record.mode == LockMode::kExclusive) {
      updates_by[static_cast<size_t>(ShardOf(config_, record.item))]
          .push_back({record.item, record.version_written});
    }
  }
  const int32_t src_lp = LpOfClient(client.index);
  for (int32_t shard : ShardsOf(config_, run)) {
    std::vector<db::ItemVersion>& updates =
        updates_by[static_cast<size_t>(shard)];
    const uint64_t payload =
        net::kControlPayload + net::kDataPayload * updates.size();
    SendMsg(src_lp, shard, run.site(), ServerSiteOf(config_, shard), payload,
            [this, shard, txn = run.id, updates = std::move(updates)] {
              ServerOnRelease(shard, txn, updates);
            });
  }
}

void ParallelEngine::ScheduleNextTxn(ClientState& client) {
  const SimTime idle = client.generator->SampleIdle();
  psim_->lp(LpOfClient(client.index))
      .Schedule(idle,
                [this, index = client.index] { BeginTxn(index); });
}

// ---------------------------------------------------------------------------
// Shard handlers (run on the shard's LP)

void ParallelEngine::ServerOnRequest(int32_t shard, TxnId txn,
                                     int32_t client_index, ItemId item,
                                     LockMode mode, SimTime txn_start,
                                     int64_t held_ops) {
  EmitLockRequest(txn, client_index + 1, item, mode, shard, 0, 0,
                  TracerOf(shard));
  Shard& state = shards_[static_cast<size_t>(shard)];
  const db::LockResult outcome = state.locks->Request(txn, item, mode);
  if (outcome == db::LockResult::kGranted) {
    SendGrant(shard, txn, item);
    return;
  }
  // Blocked. Wait-die: die iff any blocker is older (smaller id — the
  // striped ids are monotone per client, a valid age order); the blocker
  // set includes conflicting earlier waiters, so granted wait edges always
  // point old -> young and no cross-shard cycle can form. No-wait: die
  // unconditionally.
  bool die = true;
  if (wait_die_) {
    die = false;
    for (TxnId blocker : state.locks->Blockers(txn, item)) {
      if (blocker < txn) {
        die = true;
        break;
      }
    }
  }
  if (!die) return;  // parked in the FIFO queue; a release will grant it
  // Requester-victim abort, decided at this shard: count it here (the
  // request carried the age data), drop the victim's queue entry and any
  // locks it holds on THIS shard, and send the charged notice; the client
  // cleans up its locks on other shards with explicit release messages.
  RecordAbort(txn, client_index + 1, ServerSiteOf(config_, shard),
              psim_->lp(shard).Now() - txn_start, held_ops, measuring_,
              slices_[static_cast<size_t>(shard)], TracerOf(shard));
  ReleaseLocks(shard, txn);
  SendMsg(shard, LpOfClient(client_index), ServerSiteOf(config_, shard),
          client_index + 1, net::kControlPayload,
          [this, client_index, txn, shard] {
            ClientOnAbortNotice(client_index, txn, shard);
          });
}

void ParallelEngine::SendGrant(int32_t shard, TxnId txn, ItemId item) {
  // The striped id encodes the owner: client = (txn - 1) % num_clients.
  const int32_t client_index =
      static_cast<int32_t>((txn - 1) % config_.num_clients);
  const Version version =
      shards_[static_cast<size_t>(shard)].store->VersionOf(item);
  SendMsg(shard, LpOfClient(client_index), ServerSiteOf(config_, shard),
          client_index + 1, net::kControlPayload + net::kDataPayload,
          [this, client_index, txn, item, version] {
            ClientOnGrant(client_index, txn, item, version);
          });
}

void ParallelEngine::ServerOnRelease(int32_t shard, TxnId txn,
                                     std::vector<db::ItemVersion> updates) {
  EmitRelease(txn, shard, ServerSiteOf(config_, shard),
              static_cast<int64_t>(updates.size()), "", TracerOf(shard));
  Shard& state = shards_[static_cast<size_t>(shard)];
  for (const db::ItemVersion& update : updates) {
    InstallAt(*state.store, *state.wal, update);
  }
  // Continuous server checkpointing (as in the serial engines): installed
  // versions are already in the store, so the whole log truncates.
  state.wal->Checkpoint();
  // Installs land before promotions, so a promoted reader sees the new
  // version (the strict-2PL reads-from edge the serializability test pins).
  ReleaseLocks(shard, txn);
}

void ParallelEngine::ServerOnAbortRelease(int32_t shard, TxnId txn) {
  EmitRelease(txn, shard, ServerSiteOf(config_, shard), 0, "abort",
              TracerOf(shard));
  ReleaseLocks(shard, txn);
}

void ParallelEngine::ReleaseLocks(int32_t shard, TxnId txn) {
  shards_[static_cast<size_t>(shard)].locks->ReleaseAll(
      txn, [this, shard](TxnId granted, ItemId item, LockMode) {
        SendGrant(shard, granted, item);
      });
}

void ParallelEngine::ClientOnAbortNotice(int32_t client_index, TxnId txn,
                                         int32_t deciding_shard) {
  ClientState& client = clients_[static_cast<size_t>(client_index)];
  TxnRun* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  run->finished = true;
  client.wal->Append();  // the abort record
  // Release the victim's locks on every other shard it touched (the
  // deciding shard already dropped them at decision time).
  const int32_t src_lp = LpOfClient(client_index);
  for (int32_t shard : ShardsOf(config_, *run)) {
    if (shard == deciding_shard) continue;
    SendMsg(src_lp, shard, run->site(), ServerSiteOf(config_, shard),
            net::kControlPayload,
            [this, shard, txn] { ServerOnAbortRelease(shard, txn); });
  }
  ScheduleNextTxn(client);
}

// ---------------------------------------------------------------------------
// Run loop

RunResult ParallelEngine::Run() {
  measuring_ = config_.warmup_txns == 0;
  // Initial idle draws happen in client order on the main thread — the
  // same draw order as the serial engines' setup loop.
  for (ClientState& client : clients_) {
    const SimTime idle = client.generator->SampleIdle();
    psim_->lp(LpOfClient(client.index))
        .Schedule(idle,
                  [this, index = client.index] { BeginTxn(index); });
  }
  // Warmup crossing and the stop target are evaluated at window barriers
  // on global commit-count snapshots — deterministic at any thread count
  // (the run overshoots the serial per-commit stop by at most one window).
  psim_->SetBarrierHook([this](SimTime horizon) {
    int64_t total = 0;
    int64_t measured = 0;
    for (const RunResult& slice : slices_) {
      total += slice.total_commits;
      measured += slice.commits;
    }
    if (!measuring_ && total >= config_.warmup_txns) measuring_ = true;
    if (measured >= config_.measured_txns) psim_->lp(0).Stop();
    // The barrier guarantees no future event can be stamped below the
    // horizon, so the trace prefix and the metric crossings below it are
    // final — drain both here (single-threaded, all LPs quiescent).
    if (merger_ != nullptr) merger_->Flush(horizon);
    SampleMetricsBelow(horizon);
  });
  const sim::ParallelRunStats stats =
      psim_->Run(config_.max_sim_time == 0 ? -1 : config_.max_sim_time);

  // Merge the per-LP slices in LP order (fixed, thread-count independent).
  RunResult result = EmptyResult(config_);
  for (RunResult& slice : slices_) {
    result.response.Merge(slice.response);
    result.op_wait.Merge(slice.op_wait);
    result.abort_age.Merge(slice.abort_age);
    result.abort_held_items.Merge(slice.abort_held_items);
    result.span_lock_wait.Merge(slice.span_lock_wait);
    result.span_propagation.Merge(slice.span_propagation);
    result.span_queueing.Merge(slice.span_queueing);
    result.span_execution.Merge(slice.span_execution);
    result.span_commit.Merge(slice.span_commit);
    result.span_commit_prepare.Merge(slice.span_commit_prepare);
    result.span_commit_vote.Merge(slice.span_commit_vote);
    result.span_lease_revoke.Merge(slice.span_lease_revoke);
    result.commit_flights.Merge(slice.commit_flights);
    result.commit_participants.Merge(slice.commit_participants);
    result.response_hist.Merge(slice.response_hist);
    result.op_wait_hist.Merge(slice.op_wait_hist);
    result.xcommit_span_hist.Merge(slice.xcommit_span_hist);
    result.commits += slice.commits;
    result.aborts += slice.aborts;
    result.total_commits += slice.total_commits;
    result.total_aborts += slice.total_aborts;
    result.cross_server_commits += slice.cross_server_commits;
    net::NetworkStats& n = result.network;
    n.messages += slice.network.messages;
    n.server_to_client += slice.network.server_to_client;
    n.client_to_server += slice.network.client_to_server;
    n.client_to_client += slice.network.client_to_client;
    n.server_to_server += slice.network.server_to_server;
    n.payload_units += slice.network.payload_units;
    for (CommittedTxn& committed : slice.history) {
      result.history.push_back(std::move(committed));
    }
  }
  std::sort(result.history.begin(), result.history.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              if (a.commit_time != b.commit_time) {
                return a.commit_time < b.commit_time;
              }
              return a.id < b.id;
            });
  result.timed_out = result.commits < config_.measured_txns;
  result.sync_windows = stats.windows;
  result.sync_stalls = stats.stalls;
  result.shard_events.reserve(static_cast<size_t>(num_shards()));
  SimTime end_time = 0;
  for (int32_t i = 0; i < num_shards(); ++i) {
    const uint64_t events = psim_->lp(i).events_executed();
    result.shard_events.push_back(events);
    result.events += events;
    end_time = std::max(end_time, psim_->lp(i).Now());
  }
  result.end_time = end_time;
  for (const Shard& shard : shards_) AddWalCounters(*shard.wal, result);
  for (const ClientState& client : clients_) {
    AddWalCounters(*client.wal, result);
  }
  if (merger_ != nullptr) {
    merger_->FlushAll();
    if (trace_sink_ != nullptr) {
      trace_sink_->Flush();
      result.trace_stream_bytes = trace_sink_->bytes_written();
      result.trace_peak_buffer = trace_sink_->peak_buffer_bytes();
      result.trace_write_failed = !trace_sink_->ok();
    } else {
      result.obs_trace = merger_->Take();
    }
  }
  result.metrics = metrics_.TakeRows();
  result.metric_names = metrics_.TakeNames();
  return result;
}

}  // namespace

RunResult RunParallelSimulation(const SimConfig& config) {
  // Re-validate against the sim_threads > 1 subset even when called
  // directly with sim_threads == 1 (the bench's scaling baseline): the
  // engine itself needs the decomposable subset, not just the threads.
  SimConfig probe = config;
  probe.sim_threads = std::max<int32_t>(config.sim_threads, 2);
  GTPL_CHECK(probe.Validate().ok()) << probe.Validate().ToString();
  ParallelEngine engine(config);
  return engine.Run();
}

}  // namespace gtpl::proto
