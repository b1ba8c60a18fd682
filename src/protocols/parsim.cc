// Conservative per-shard parallel engine (DESIGN.md §15).
//
// Topology: LP s owns server shard s (lock table, installed versions, WAL)
// and the clients with index % num_servers == s. All state is partitioned
// by LP; an event only ever touches its own LP's slice, and every
// cross-LP interaction is a sim::ShardSim channel message of exactly one
// WAN latency (the lookahead). Metrics accumulate into per-LP RunResult
// slices merged in LP order after the run — so the whole simulation is
// bit-identical at any thread count.

#include "protocols/parsim.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "db/lock_table.h"
#include "db/wal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "sim/parallel.h"
#include "workload/generator.h"

namespace gtpl::proto {
namespace {

using workload::Operation;

struct Update {
  ItemId item;
  Version version;
};

class ParallelEngine {
 public:
  explicit ParallelEngine(const SimConfig& config);
  RunResult Run();

 private:
  /// One in-flight transaction at a client (the parallel analogue of
  /// EngineBase::TxnRun; doomed/committing flags are unnecessary because a
  /// requester-victim abort always rides the reply to the one outstanding
  /// request, so no stale message can reach a finished run).
  struct PTxn {
    TxnId id = kInvalidTxn;
    int32_t client_index = 0;
    workload::TxnSpec spec;
    size_t current_op = 0;
    SimTime start_time = 0;
    bool finished = false;
    SimTime request_time = 0;
    Version pending_version = 0;
    std::vector<OpRecord> records;
    TxnSpan span;
    SimTime commit_start = 0;
    int32_t commit_flights = -1;
    // Classic 2PC coordination (cross-shard commits only).
    int32_t votes_pending = 0;
    int32_t participants = 0;
    SimTime prepare_sent = 0;

    SiteId site() const { return client_index + 1; }
    const Operation& op() const { return spec.ops[current_op]; }
    bool LastOp() const { return current_op + 1 == spec.ops.size(); }
  };

  struct Client {
    int32_t index = 0;
    std::unique_ptr<workload::WorkloadGenerator> generator;
    std::unique_ptr<db::WriteAheadLog> wal;
    std::unique_ptr<PTxn> current;
    int64_t started_txns = 0;  // stripes the next txn id
  };

  struct Shard {
    std::unique_ptr<db::LockTable> locks;
    std::unique_ptr<db::WriteAheadLog> wal;
    std::vector<Version> versions;  // full item space; only own items used
  };

  int32_t num_shards() const { return config_.num_servers; }
  int32_t ShardOf(ItemId item) const {
    if (config_.shard_routing == ShardRouting::kRange) {
      return std::min(item / items_per_shard_, num_shards() - 1);
    }
    return item % num_shards();
  }
  int32_t LpOfClient(int32_t client) const { return client % num_shards(); }
  SiteId ShardSiteOf(int32_t shard) const {
    return shard == 0 ? kServerSite : config_.num_clients + shard;
  }
  bool IsServerSite(SiteId site) const {
    return site == kServerSite || site > config_.num_clients;
  }

  /// Counts the message in the SENDER's slice and parks it on the channel.
  void SendMsg(int32_t src_lp, int32_t dst_lp, SiteId from, SiteId to,
               uint64_t payload, std::function<void()> action);

  // --- client-LP handlers ---------------------------------------------
  void BeginTxn(int32_t client_index);
  void IssueRequest(Client& client);
  void ClientOnGrant(int32_t client_index, TxnId txn, ItemId item,
                     Version version);
  void FinishOp(int32_t client_index, TxnId txn);
  void StartCommit(Client& client);
  void StartLocalCommit(Client& client);
  void FinalizeCommit(Client& client);
  void SendReleases(Client& client);
  void ClientOnVote(int32_t client_index, TxnId txn, int32_t voting_shard);
  void ClientOnAbortNotice(int32_t client_index, TxnId txn,
                           int32_t deciding_shard);
  void ScheduleNextTxn(Client& client);

  // --- shard-LP handlers ----------------------------------------------
  void ServerOnRequest(int32_t shard, TxnId txn, int32_t client_index,
                       ItemId item, LockMode mode, SimTime txn_start,
                       int64_t held_ops);
  void SendGrant(int32_t shard, TxnId txn, ItemId item);
  void ServerOnPrepare(int32_t shard, TxnId txn, int32_t client_index);
  void ServerOnRelease(int32_t shard, TxnId txn, std::vector<Update> updates);
  void ServerOnAbortRelease(int32_t shard, TxnId txn);

  // --- observability (DESIGN.md §16) ----------------------------------
  bool tracing() const { return merger_ != nullptr; }
  obs::Tracer& TracerOf(int32_t lp) {
    return *tracers_[static_cast<size_t>(lp)];
  }
  /// Emits every metrics_interval crossing strictly below `horizon` (the
  /// completed window's horizon). Probe state and the crossing sequence are
  /// barrier state — thread-count-invariant, so the series is deterministic.
  void SampleMetricsBelow(SimTime horizon);

  SimConfig config_;
  SimTime latency_;
  int32_t items_per_shard_;
  bool wait_die_;
  std::unique_ptr<sim::ParallelSim> psim_;
  std::vector<Client> clients_;
  std::vector<Shard> shards_;
  /// One Tracer per LP (obs_trace only): events stamp the owning LP's
  /// clock and a dense per-LP seq; merger_ re-orders them into the global
  /// (time, lp, per-LP seq) stream at window barriers — byte-identical at
  /// any thread count, and to the same run at sim_threads == 1.
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
      items_per_shard_((config.workload.num_items + config.num_servers - 1) /
                       config.num_servers),
      wait_die_(config.protocol == Protocol::kWaitDie) {
  psim_ = std::make_unique<sim::ParallelSim>(num_shards(), latency_,
                                             config.sim_threads);
  shards_.resize(static_cast<size_t>(num_shards()));
  for (Shard& shard : shards_) {
    shard.locks = std::make_unique<db::LockTable>(config.workload.num_items);
    shard.wal = std::make_unique<db::WriteAheadLog>(config.wal_force_delay);
    shard.versions.assign(static_cast<size_t>(config.workload.num_items), 0);
  }
  slices_.resize(static_cast<size_t>(num_shards()));
  // Same histogram sizing as EngineBase, so slices merge into an
  // identically-shaped final result.
  const double unit =
      static_cast<double>(std::max<SimTime>(config.latency, 8));
  for (RunResult& slice : slices_) {
    slice.response_hist = stats::Histogram(unit * 8192.0, 8192);
    slice.op_wait_hist = stats::Histogram(unit * 1024.0, 4096);
    slice.xcommit_span_hist = stats::Histogram(unit * 1024.0, 4096);
  }
  // Generator seeds are drawn in client order from the run seed — the same
  // seeder discipline as EngineBase, so client c's draw stream does not
  // depend on the shard count.
  clients_.resize(static_cast<size_t>(config.num_clients));
  rng::Rng seeder(config.seed);
  for (int32_t i = 0; i < config.num_clients; ++i) {
    Client& client = clients_[static_cast<size_t>(i)];
    client.index = i;
    client.generator = std::make_unique<workload::WorkloadGenerator>(
        config.workload, seeder.Next64());
    client.wal = std::make_unique<db::WriteAheadLog>(config.wal_force_delay);
  }
  if (config.obs_trace) {
    std::vector<obs::Tracer*> lps;
    tracers_.reserve(static_cast<size_t>(num_shards()));
    for (int32_t i = 0; i < num_shards(); ++i) {
      auto tracer = std::make_unique<obs::Tracer>();
      tracer->AttachClock([this, i] { return psim_->lp(i).Now(); });
      tracer->Enable();
      lps.push_back(tracer.get());
      tracers_.push_back(std::move(tracer));
    }
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
        for (const Client& client : clients_) {
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
  net::NetworkStats& n = slices_[static_cast<size_t>(src_lp)].network;
  ++n.messages;
  n.payload_units += payload;
  const bool from_server = IsServerSite(from);
  const bool to_server = IsServerSite(to);
  if (from_server && to_server) {
    ++n.server_to_server;
  } else if (from_server) {
    ++n.server_to_client;
  } else if (to_server) {
    ++n.client_to_server;
  } else {
    ++n.client_to_client;
  }
  psim_->lp(src_lp).SendTo(dst_lp, latency_, std::move(action));
}

// ---------------------------------------------------------------------------
// Client lifecycle (runs on the client's LP)

void ParallelEngine::BeginTxn(int32_t client_index) {
  Client& client = clients_[static_cast<size_t>(client_index)];
  auto run = std::make_unique<PTxn>();
  // Striped ids: globally unique, deterministic at any thread/shard
  // placement, and monotone per client — a valid wait-die age order.
  run->id = client.started_txns * config_.num_clients + client_index + 1;
  ++client.started_txns;
  run->client_index = client_index;
  run->spec = client.generator->NextTxn();
  run->spec.id = run->id;
  const SimTime now = psim_->lp(LpOfClient(client_index)).Now();
  run->start_time = now;
  run->request_time = now;
  client.current = std::move(run);
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kTxnBegin;
    event.txn = client.current->id;
    event.site = client.current->site();
    event.payload = static_cast<int64_t>(client.current->spec.ops.size());
    TracerOf(LpOfClient(client_index)).Emit(std::move(event));
  }
  IssueRequest(client);
}

void ParallelEngine::IssueRequest(Client& client) {
  PTxn& run = *client.current;
  const Operation op = run.op();
  const int32_t shard = ShardOf(op.item);
  const int32_t src_lp = LpOfClient(client.index);
  // The request carries everything the shard needs for a requester-victim
  // abort decision (age metrics) — the shard never reads client state.
  SendMsg(src_lp, shard, run.site(), ShardSiteOf(shard), net::kControlPayload,
          [this, shard, txn = run.id, client_index = client.index,
           item = op.item, mode = op.mode, txn_start = run.start_time,
           held_ops = static_cast<int64_t>(run.records.size())] {
            ServerOnRequest(shard, txn, client_index, item, mode, txn_start,
                            held_ops);
          });
}

void ParallelEngine::ClientOnGrant(int32_t client_index, TxnId txn,
                                   ItemId item, Version version) {
  Client& client = clients_[static_cast<size_t>(client_index)];
  PTxn* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  GTPL_CHECK_EQ(run->op().item, item);
  sim::ShardSim& lp = psim_->lp(LpOfClient(client_index));
  const SimTime wait = lp.Now() - run->request_time;
  RunResult& slice = slices_[static_cast<size_t>(LpOfClient(client_index))];
  if (measuring_) {
    slice.op_wait.Add(static_cast<double>(wait));
    slice.op_wait_hist.Add(static_cast<double>(wait));
  }
  // Uniform pure propagation: the request and grant flights each took
  // exactly one latency; the residual is server-side lock wait.
  const SimTime op_lock_wait = std::max<SimTime>(0, wait - 2 * latency_);
  run->span.lock_wait += op_lock_wait;
  run->span.propagation += 2 * latency_;
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kLockGrant;
    event.txn = run->id;
    event.site = run->site();
    event.item = item;
    event.mode = static_cast<int32_t>(run->op().mode);
    event.d0 = op_lock_wait;
    event.d1 = wait;
    TracerOf(LpOfClient(client_index)).Emit(std::move(event));
  }
  run->pending_version = version;
  const SimTime think = client.generator->SampleThink();
  run->span.execution += think;
  lp.Schedule(think, [this, client_index, txn] { FinishOp(client_index, txn); });
}

void ParallelEngine::FinishOp(int32_t client_index, TxnId txn) {
  Client& client = clients_[static_cast<size_t>(client_index)];
  PTxn* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  const Operation& op = run->op();
  OpRecord record;
  record.item = op.item;
  record.mode = op.mode;
  record.version_read = run->pending_version;
  record.version_written =
      op.mode == LockMode::kExclusive ? run->pending_version + 1 : 0;
  run->records.push_back(record);
  if (op.mode == LockMode::kExclusive) {
    client.wal->Append(db::LogRecordKind::kUpdate, run->id, op.item,
                       record.version_written);
  }
  if (run->LastOp()) {
    run->commit_start = psim_->lp(LpOfClient(client_index)).Now();
    StartCommit(client);
    return;
  }
  ++run->current_op;
  run->request_time = psim_->lp(LpOfClient(client_index)).Now();
  IssueRequest(client);
}

void ParallelEngine::StartCommit(Client& client) {
  PTxn& run = *client.current;
  std::vector<bool> touched(static_cast<size_t>(num_shards()), false);
  for (const OpRecord& record : run.records) {
    touched[static_cast<size_t>(ShardOf(record.item))] = true;
  }
  int32_t participants = 0;
  for (const bool t : touched) participants += t ? 1 : 0;
  if (participants <= 1) {
    // Single-shard commit: the ordinary local commit point, then one
    // release message (commit_flights stays -1, like the serial engines).
    StartLocalCommit(client);
    return;
  }
  // Classic client-coordinated 2PC: force the coordinator's prepare
  // record, fan prepares out, collect votes, then commit locally — the
  // decision rides the release messages (2 blocking flights).
  run.participants = participants;
  run.votes_pending = participants;
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, run.id,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  const int32_t src_lp = LpOfClient(client.index);
  auto send_prepares = [this, client_index = client.index, txn = run.id,
                        touched = std::move(touched)] {
    Client& cl = clients_[static_cast<size_t>(client_index)];
    PTxn* current = cl.current.get();
    if (current == nullptr || current->id != txn || current->finished) return;
    const int32_t lp = LpOfClient(client_index);
    current->prepare_sent = psim_->lp(lp).Now();
    for (int32_t shard = 0; shard < num_shards(); ++shard) {
      if (!touched[static_cast<size_t>(shard)]) continue;
      SendMsg(lp, shard, current->site(), ShardSiteOf(shard),
              net::kControlPayload, [this, shard, txn, client_index] {
                ServerOnPrepare(shard, txn, client_index);
              });
    }
  };
  if (force_delay > 0) {
    psim_->lp(src_lp).Schedule(force_delay, std::move(send_prepares));
  } else {
    send_prepares();
  }
}

void ParallelEngine::StartLocalCommit(Client& client) {
  PTxn& run = *client.current;
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kCommit, run.id,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  if (force_delay > 0) {
    psim_->lp(LpOfClient(client.index))
        .Schedule(force_delay, [this, client_index = client.index,
                                txn = run.id] {
          Client& cl = clients_[static_cast<size_t>(client_index)];
          PTxn* current = cl.current.get();
          if (current == nullptr || current->id != txn || current->finished) {
            return;
          }
          FinalizeCommit(cl);
        });
    return;
  }
  FinalizeCommit(client);
}

void ParallelEngine::ServerOnPrepare(int32_t shard, TxnId txn,
                                     int32_t client_index) {
  // A committing transaction has no blocked request, so it can never be an
  // abort victim (requester-victim subset): the vote is always yes. The
  // participant forces its own prepare record before voting.
  Shard& state = shards_[static_cast<size_t>(shard)];
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kPrepare;
    event.txn = txn;
    event.shard = shard;
    event.site = ShardSiteOf(shard);
    TracerOf(shard).Emit(std::move(event));
  }
  const int64_t lsn =
      state.wal->Append(db::LogRecordKind::kPrepare, txn, kInvalidItem, 0);
  state.wal->Force(lsn);
  SendMsg(shard, LpOfClient(client_index), ShardSiteOf(shard),
          client_index + 1, net::kControlPayload, [this, client_index, txn,
                                                  shard] {
            ClientOnVote(client_index, txn, shard);
          });
}

void ParallelEngine::ClientOnVote(int32_t client_index, TxnId txn,
                                  int32_t voting_shard) {
  Client& client = clients_[static_cast<size_t>(client_index)];
  PTxn* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kVote;
    event.txn = txn;
    event.shard = voting_shard;
    event.flag = true;  // requester-victim subset: votes are always yes
    TracerOf(LpOfClient(client_index)).Emit(std::move(event));
  }
  GTPL_CHECK_GT(run->votes_pending, 0);
  if (--run->votes_pending > 0) return;
  // All votes home. Under uniform latency the last prepare landed exactly
  // one latency after the fan-out; the rest of the round is the vote leg.
  const SimTime now = psim_->lp(LpOfClient(client_index)).Now();
  run->span.commit_prepare = latency_;
  run->span.commit_vote = now - run->prepare_sent - latency_;
  GTPL_CHECK_GE(run->span.commit_vote, 0);
  run->commit_flights = 2;
  RunResult& slice = slices_[static_cast<size_t>(LpOfClient(client_index))];
  if (measuring_) {
    ++slice.cross_server_commits;
    slice.commit_participants.Add(static_cast<double>(run->participants));
  }
  StartLocalCommit(client);
}

void ParallelEngine::FinalizeCommit(Client& client) {
  PTxn& run = *client.current;
  const int32_t lp_index = LpOfClient(client.index);
  const SimTime now = psim_->lp(lp_index).Now();
  run.finished = true;
  run.span.commit = now - run.commit_start;
  RunResult& slice = slices_[static_cast<size_t>(lp_index)];
  ++slice.total_commits;
  const bool measured = measuring_;
  if (measured) {
    ++slice.commits;
    const double response = static_cast<double>(now - run.start_time);
    slice.response.Add(response);
    slice.response_hist.Add(response);
    slice.span_lock_wait.Add(static_cast<double>(run.span.lock_wait));
    slice.span_propagation.Add(static_cast<double>(run.span.propagation));
    slice.span_queueing.Add(static_cast<double>(run.span.queueing));
    slice.span_execution.Add(static_cast<double>(run.span.execution));
    slice.span_commit.Add(static_cast<double>(run.span.commit));
    slice.span_commit_prepare.Add(
        static_cast<double>(run.span.commit_prepare));
    slice.span_commit_vote.Add(static_cast<double>(run.span.commit_vote));
    slice.span_lease_revoke.Add(0.0);
    if (run.commit_flights >= 0) {
      slice.commit_flights.Add(static_cast<double>(run.commit_flights));
      slice.xcommit_span_hist.Add(static_cast<double>(run.span.commit));
    }
  }
  if (config_.record_history) {
    // Warmup commits participate in version chains too (same rationale as
    // the serial engine): record both phases.
    CommittedTxn committed;
    committed.id = run.id;
    committed.client = run.site();
    committed.start_time = run.start_time;
    committed.commit_time = now;
    committed.span = run.span;
    committed.ops = run.records;
    committed.commit_flights = run.commit_flights;
    slice.history.push_back(std::move(committed));
  }
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kTxnCommit;
    event.txn = run.id;
    event.site = run.site();
    event.flag = measured;
    event.payload = now - run.start_time;  // response time
    event.d0 = run.span.lock_wait;
    event.d1 = run.span.propagation;
    event.d2 = run.span.queueing;
    event.d3 = run.span.execution;
    event.d4 = run.span.commit;
    TracerOf(lp_index).Emit(std::move(event));
  }
  SendReleases(client);
  // Client-log GC at commit finalize (documented simplification of the
  // serial engines' server-acknowledged truncation): the commit's installs
  // are on their way and will be permanent before any dependent read.
  client.wal->Force(client.wal->next_lsn() - 1);
  client.wal->TruncateThrough(client.wal->durable_lsn());
  ScheduleNextTxn(client);
}

void ParallelEngine::SendReleases(Client& client) {
  PTxn& run = *client.current;
  // One release per participant shard carrying that shard's installs —
  // phase two of a cross-shard commit (the decision rides along), or the
  // single release message of a single-shard commit.
  std::vector<std::vector<Update>> updates_by(
      static_cast<size_t>(num_shards()));
  std::vector<bool> touched(static_cast<size_t>(num_shards()), false);
  for (const OpRecord& record : run.records) {
    const size_t shard = static_cast<size_t>(ShardOf(record.item));
    touched[shard] = true;
    if (record.mode == LockMode::kExclusive) {
      updates_by[shard].push_back(
          Update{record.item, record.version_written});
    }
  }
  const int32_t src_lp = LpOfClient(client.index);
  for (int32_t shard = 0; shard < num_shards(); ++shard) {
    if (!touched[static_cast<size_t>(shard)]) continue;
    std::vector<Update>& updates = updates_by[static_cast<size_t>(shard)];
    const uint64_t payload =
        net::kControlPayload + net::kDataPayload * updates.size();
    SendMsg(src_lp, shard, run.site(), ShardSiteOf(shard), payload,
            [this, shard, txn = run.id, updates = std::move(updates)] {
              ServerOnRelease(shard, txn, updates);
            });
  }
}

void ParallelEngine::ScheduleNextTxn(Client& client) {
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
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kLockRequest;
    event.txn = txn;
    event.site = client_index + 1;
    event.item = item;
    event.mode = static_cast<int32_t>(mode);
    event.shard = shard;
    TracerOf(shard).Emit(std::move(event));
  }
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
  RunResult& slice = slices_[static_cast<size_t>(shard)];
  ++slice.total_aborts;
  if (measuring_) {
    ++slice.aborts;
    slice.abort_age.Add(
        static_cast<double>(psim_->lp(shard).Now() - txn_start));
    slice.abort_held_items.Add(static_cast<double>(held_ops));
  }
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kTxnAbort;
    event.txn = txn;
    event.site = client_index + 1;
    event.peer = ShardSiteOf(shard);
    event.d0 = psim_->lp(shard).Now() - txn_start;  // age at the decision
    event.payload = held_ops;
    TracerOf(shard).Emit(std::move(event));
  }
  state.locks->ReleaseAll(txn,
                          [this, shard](TxnId granted, ItemId gitem,
                                        LockMode gmode) {
                            (void)gmode;
                            SendGrant(shard, granted, gitem);
                          });
  SendMsg(shard, LpOfClient(client_index), ShardSiteOf(shard),
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
      shards_[static_cast<size_t>(shard)].versions[static_cast<size_t>(item)];
  SendMsg(shard, LpOfClient(client_index), ShardSiteOf(shard),
          client_index + 1, net::kControlPayload + net::kDataPayload,
          [this, client_index, txn, item, version] {
            ClientOnGrant(client_index, txn, item, version);
          });
}

void ParallelEngine::ServerOnRelease(int32_t shard, TxnId txn,
                                     std::vector<Update> updates) {
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kLockRelease;
    event.txn = txn;
    event.site = ShardSiteOf(shard);
    event.shard = shard;
    event.payload = static_cast<int64_t>(updates.size());
    TracerOf(shard).Emit(std::move(event));
  }
  Shard& state = shards_[static_cast<size_t>(shard)];
  for (const Update& update : updates) {
    Version& installed = state.versions[static_cast<size_t>(update.item)];
    GTPL_CHECK_GE(update.version, installed) << "stale install";
    installed = update.version;
    const int64_t lsn = state.wal->Append(db::LogRecordKind::kInstall, txn,
                                          update.item, update.version);
    state.wal->Force(lsn);
  }
  // Continuous server checkpointing (as in the serial engines): installed
  // versions are already in the store, so the forced prefix truncates.
  if (state.wal->next_lsn() > 1) {
    state.wal->Force(state.wal->next_lsn() - 1);
    state.wal->TruncateThrough(state.wal->durable_lsn());
  }
  // Installs land before promotions, so a promoted reader sees the new
  // version (the strict-2PL reads-from edge the serializability test pins).
  state.locks->ReleaseAll(
      txn, [this, shard](TxnId granted, ItemId item, LockMode mode) {
        (void)mode;
        SendGrant(shard, granted, item);
      });
}

void ParallelEngine::ServerOnAbortRelease(int32_t shard, TxnId txn) {
  if (tracing()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kLockRelease;
    event.txn = txn;
    event.site = ShardSiteOf(shard);
    event.shard = shard;
    event.label = "abort";
    TracerOf(shard).Emit(std::move(event));
  }
  shards_[static_cast<size_t>(shard)].locks->ReleaseAll(
      txn, [this, shard](TxnId granted, ItemId item, LockMode mode) {
        (void)mode;
        SendGrant(shard, granted, item);
      });
}

void ParallelEngine::ClientOnAbortNotice(int32_t client_index, TxnId txn,
                                         int32_t deciding_shard) {
  Client& client = clients_[static_cast<size_t>(client_index)];
  PTxn* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  run->finished = true;
  client.wal->Append(db::LogRecordKind::kAbort, txn, kInvalidItem, 0);
  // Release the victim's locks on every other shard it touched (the
  // deciding shard already dropped them at decision time).
  std::vector<bool> touched(static_cast<size_t>(num_shards()), false);
  for (const OpRecord& record : run->records) {
    touched[static_cast<size_t>(ShardOf(record.item))] = true;
  }
  const int32_t src_lp = LpOfClient(client_index);
  for (int32_t shard = 0; shard < num_shards(); ++shard) {
    if (!touched[static_cast<size_t>(shard)] || shard == deciding_shard) {
      continue;
    }
    SendMsg(src_lp, shard, run->site(), ShardSiteOf(shard),
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
  for (Client& client : clients_) {
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
  RunResult result;
  const double unit =
      static_cast<double>(std::max<SimTime>(config_.latency, 8));
  result.response_hist = stats::Histogram(unit * 8192.0, 8192);
  result.op_wait_hist = stats::Histogram(unit * 1024.0, 4096);
  result.xcommit_span_hist = stats::Histogram(unit * 1024.0, 4096);
  int64_t measured_total = 0;
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
    measured_total += slice.commits;
  }
  std::sort(result.history.begin(), result.history.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              if (a.commit_time != b.commit_time) {
                return a.commit_time < b.commit_time;
              }
              return a.id < b.id;
            });
  result.timed_out = measured_total < config_.measured_txns;
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
  for (const Shard& shard : shards_) {
    result.wal_appends += shard.wal->appends();
    result.wal_forces += shard.wal->forces();
    result.wal_retained += static_cast<int64_t>(shard.wal->size());
  }
  for (const Client& client : clients_) {
    result.wal_appends += client.wal->appends();
    result.wal_forces += client.wal->forces();
    result.wal_retained += static_cast<int64_t>(client.wal->size());
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
