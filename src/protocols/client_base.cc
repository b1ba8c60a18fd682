// The transaction bookkeeping EngineBase and the parallel engine share, and
// EngineBase's client-side transaction lifecycle (the commit paths are in
// commit.cc).

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "protocols/engine.h"
#include "rng/rng.h"

namespace gtpl::proto {

std::vector<ClientState> MakeClients(const SimConfig& config) {
  std::vector<ClientState> clients(static_cast<size_t>(config.num_clients));
  rng::Rng seeder(config.seed);
  for (int32_t i = 0; i < config.num_clients; ++i) {
    ClientState& client = clients[static_cast<size_t>(i)];
    client.index = i;
    client.generator = std::make_unique<workload::WorkloadGenerator>(
        config.workload, seeder.Next64());
  }
  return clients;
}

RunResult EmptyResult(const SimConfig& config) {
  // Full response / op-wait distributions behind the Welford means. Bucket
  // width tracks the configured latency (the natural unit of every round),
  // with generous headroom before the overflow bucket.
  const double unit =
      static_cast<double>(std::max<SimTime>(config.latency, 8));
  RunResult result;
  result.response_hist = stats::Histogram(unit * 8192.0, 8192);
  result.op_wait_hist = stats::Histogram(unit * 1024.0, 4096);
  result.xcommit_span_hist = stats::Histogram(unit * 1024.0, 4096);
  return result;
}

std::vector<int32_t> ShardsOf(const SimConfig& config, const TxnRun& run,
                              bool writes_only) {
  std::vector<int32_t> shards;
  shards.reserve(run.records.size());
  for (const OpRecord& record : run.records) {
    if (writes_only && record.mode != LockMode::kExclusive) continue;
    shards.push_back(ShardOf(config, record.item));
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

void RecordGrant(TxnRun& run, SimTime wait, SimTime propagation,
                 SimTime queueing, bool measured, RunResult& result,
                 obs::Tracer& tracer) {
  if (measured) {
    result.op_wait.Add(static_cast<double>(wait));
    result.op_wait_hist.Add(static_cast<double>(wait));
  }
  const SimTime op_lock_wait =
      std::max<SimTime>(0, wait - propagation - queueing);
  run.span.lock_wait += op_lock_wait;
  run.span.propagation += propagation;
  run.span.queueing += queueing;
  // Revoke-wait attribution (sticky leases): the server stamped how long
  // this op sat queued behind a lease revocation; clamp it into the
  // lock-wait sub-span so lease_revoke_wait <= lock_wait always holds.
  run.span.lease_revoke_wait +=
      std::min<SimTime>(run.pending_revoke_wait, op_lock_wait);
  run.pending_revoke_wait = 0;
  run.req_prop = 0;
  run.req_queue = 0;
  if (tracer.enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kLockGrant;
    event.txn = run.id;
    event.site = run.site();
    event.item = run.op().item;
    event.mode = static_cast<int32_t>(run.op().mode);
    event.d0 = op_lock_wait;
    event.d1 = wait;
    tracer.Emit(std::move(event));
  }
}

void RecordOp(TxnRun& run) {
  const workload::Operation& op = run.op();
  OpRecord record;
  record.item = op.item;
  record.mode = op.mode;
  record.version_read = run.pending_version;
  record.version_written =
      op.mode == LockMode::kExclusive ? run.pending_version + 1 : 0;
  run.records.push_back(record);
}

void RecordVotedCommit(TxnRun& run, const CommitCtx& ctx, SimTime now,
                       bool measured, RunResult& result) {
  run.span.commit_vote = now - run.commit_start - run.span.commit_prepare;
  GTPL_CHECK_GE(run.span.commit_vote, 0);
  run.commit_flights = ctx.flights;
  if (measured) {
    ++result.cross_server_commits;
    result.commit_participants.Add(
        static_cast<double>(ctx.participants.size()));
    if (ctx.coord_shard >= 0) ++result.coord_remote_commits;
    if (ctx.fallback) ++result.commit_path_fallbacks;
  }
}

void RecordCommit(TxnRun& run, SimTime now, bool measured,
                  bool record_history, RunResult& result,
                  obs::Tracer& tracer) {
  run.finished = true;
  run.span.commit = now - run.commit_start;
  ++result.total_commits;
  if (measured) {
    ++result.commits;
    result.response.Add(static_cast<double>(now - run.start_time));
    result.response_hist.Add(static_cast<double>(now - run.start_time));
    result.span_lock_wait.Add(static_cast<double>(run.span.lock_wait));
    result.span_propagation.Add(static_cast<double>(run.span.propagation));
    result.span_queueing.Add(static_cast<double>(run.span.queueing));
    result.span_execution.Add(static_cast<double>(run.span.execution));
    result.span_commit.Add(static_cast<double>(run.span.commit));
    result.span_commit_prepare.Add(
        static_cast<double>(run.span.commit_prepare));
    result.span_commit_vote.Add(static_cast<double>(run.span.commit_vote));
    result.span_lease_revoke.Add(
        static_cast<double>(run.span.lease_revoke_wait));
    if (run.commit_flights >= 0) {
      result.commit_flights.Add(static_cast<double>(run.commit_flights));
      result.xcommit_span_hist.Add(static_cast<double>(run.span.commit));
    }
  }
  if (record_history) {
    // Warmup commits are recorded too: they still participate in version
    // chains, and the serializability check needs complete writer histories.
    CommittedTxn committed;
    committed.id = run.id;
    committed.client = run.site();
    committed.start_time = run.start_time;
    committed.commit_time = now;
    committed.span = run.span;
    committed.ops = run.records;
    committed.commit_flights = run.commit_flights;
    result.history.push_back(std::move(committed));
  }
  if (tracer.enabled()) {
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
    tracer.Emit(std::move(event));
  }
}

void RecordAbort(TxnId txn, SiteId client_site, SiteId server_site,
                 SimTime age, int64_t held_ops, bool measured,
                 RunResult& result, obs::Tracer& tracer) {
  ++result.total_aborts;
  if (measured) {
    ++result.aborts;
    result.abort_age.Add(static_cast<double>(age));
    result.abort_held_items.Add(static_cast<double>(held_ops));
  }
  if (tracer.enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kTxnAbort;
    event.txn = txn;
    event.site = client_site;
    event.peer = server_site;
    event.d0 = age;  // age at the abort decision
    event.payload = held_ops;
    tracer.Emit(std::move(event));
  }
}

void EmitTxnBegin(const TxnRun& run, obs::Tracer& tracer) {
  if (!tracer.enabled()) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kTxnBegin;
  event.txn = run.id;
  event.site = run.site();
  event.payload = static_cast<int64_t>(run.spec.ops.size());
  tracer.Emit(std::move(event));
}

void EmitLockRequest(TxnId txn, SiteId site, ItemId item, LockMode mode,
                     int32_t shard, SimTime propagation, SimTime queueing,
                     obs::Tracer& tracer) {
  if (!tracer.enabled()) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kLockRequest;
  event.txn = txn;
  event.site = site;
  event.item = item;
  event.mode = static_cast<int32_t>(mode);
  event.shard = shard;
  event.d0 = propagation;
  event.d1 = queueing;
  tracer.Emit(std::move(event));
}

void EmitPrepare(TxnId txn, int32_t shard, SiteId site, const char* label,
                 obs::Tracer& tracer) {
  if (!tracer.enabled()) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kPrepare;
  event.txn = txn;
  event.shard = shard;
  event.site = site;
  event.label = label;
  tracer.Emit(std::move(event));
}

void EmitVote(TxnId txn, int32_t shard, bool yes, obs::Tracer& tracer) {
  if (!tracer.enabled()) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kVote;
  event.txn = txn;
  event.shard = shard;
  event.flag = yes;
  tracer.Emit(std::move(event));
}

void EmitRelease(TxnId txn, int32_t shard, SiteId site, int64_t updates,
                 const char* label, obs::Tracer& tracer) {
  if (!tracer.enabled()) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kLockRelease;
  event.txn = txn;
  event.site = site;
  event.shard = shard;
  event.payload = updates;
  event.label = label;
  tracer.Emit(std::move(event));
}

// ---------------------------------------------------------------------------
// EngineBase: the client lifecycle
// ---------------------------------------------------------------------------

EngineBase::EngineBase(const SimConfig& config) : config_(config) {
  GTPL_CHECK(config.Validate().ok()) << config.Validate().ToString();
  std::unique_ptr<net::LatencyModel> latency_model;
  if (config.latency_jitter == 0 && config.latency_spread == 0.0 &&
      config.server_latency < 0) {
    latency_model = std::make_unique<net::UniformLatency>(config.latency);
  } else {
    // Heterogeneous sites: per-endpoint distance offsets plus optional
    // per-message jitter (extension beyond the paper's uniform model).
    // Site layout: 0 = server, 1..num_clients = clients, then one extra
    // site per additional shard server (co-located with server 0, offset 0).
    const size_t client_sites = static_cast<size_t>(config.num_clients) + 1;
    const size_t sites =
        client_sites + static_cast<size_t>(config.num_servers - 1);
    std::vector<SimTime> offset(sites, 0);
    for (size_t site = 1; site < client_sites; ++site) {
      const double position =
          config.num_clients == 1
              ? 0.0
              : static_cast<double>(site - 1) / (config.num_clients - 1) - 0.5;
      offset[site] = static_cast<SimTime>(
          static_cast<double>(config.latency) * config.latency_spread *
          position / 2.0);
    }
    std::vector<std::vector<SimTime>> matrix(sites,
                                             std::vector<SimTime>(sites, 0));
    const auto is_server_site = [&](size_t site) {
      return site == 0 || site >= client_sites;
    };
    for (size_t a = 0; a < sites; ++a) {
      for (size_t b = 0; b < sites; ++b) {
        if (a == b) continue;
        if (config.server_latency >= 0 && is_server_site(a) &&
            is_server_site(b)) {
          // Fast inter-datacenter mesh between shard servers (the kCoord
          // commit path's motivating regime).
          matrix[a][b] = config.server_latency;
          continue;
        }
        matrix[a][b] =
            std::max<SimTime>(0, config.latency + offset[a] + offset[b]);
      }
    }
    // Jitter draws come from a dedicated SplitMix64-derived stream, so the
    // latency model never competes with workload/think-time generators for
    // random numbers (per-component streams, ROADMAP item).
    latency_model = std::make_unique<net::MatrixLatency>(
        std::move(matrix), config.latency_jitter,
        rng::StreamSeed(config.seed, rng::SeedStream::kNetJitter));
  }
  net::LinkConfig link;
  link.bandwidth = config.link_bandwidth;
  link.nic_queue = config.nic_queue;
  link.cross_traffic_load = config.cross_traffic_load;
  link.seed = rng::StreamSeed(config.seed, rng::SeedStream::kNetQueue);
  network_ = std::make_unique<net::Network>(&sim_, std::move(latency_model),
                                            link);
  // Shard servers (sites > num_clients) must count as servers in the
  // message-direction breakdown; harmless when there are none.
  network_->SetSiteLayout(config.num_clients);
  tracer_.Attach(&sim_);
  if (config.obs_trace) tracer_.Enable();
  if (!config.trace_stream_path.empty()) {
    // Bounded-memory streaming: the tracer forwards every event to the
    // chunked JSONL sink instead of buffering (DESIGN.md §16).
    trace_sink_ = std::make_unique<obs::StreamSink>(config.trace_stream_path,
                                                    config.trace_flush_bytes);
    GTPL_CHECK(trace_sink_->ok())
        << "cannot open trace stream " << config.trace_stream_path;
    tracer_.SetSink(trace_sink_.get());
  }
  network_->SetTracer(&tracer_);
  result_ = EmptyResult(config);
  store_ = std::make_unique<db::DataStore>(config.workload.num_items);
  clients_ = MakeClients(config);
}

EngineBase::TxnRun* EngineBase::FindRun(TxnId txn) const {
  auto it = txn_client_.find(txn);
  if (it == txn_client_.end()) return nullptr;
  TxnRun* run = clients_[static_cast<size_t>(it->second)].current.get();
  if (run == nullptr || run->id != txn) return nullptr;
  return run;
}

RunResult EngineBase::Run() {
  // Time-series sampling (DESIGN.md §16): one self-rescheduling event fires
  // at every multiple of the interval and reads the registered probes.
  // Probes are read-only and draw no randomness, so the run is
  // bit-identical with sampling on or off (the sampler's own fires are
  // subtracted from the event count below). The sampler stops rescheduling
  // once the queue is otherwise empty so a drain-ended run still drains.
  obs::MetricsRegistry metrics;
  uint64_t sampler_fires = 0;
  std::function<void()> sample;
  if (config_.metrics_interval > 0) {
    RegisterMetrics(&metrics);
    sample = [this, &metrics, &sampler_fires, &sample] {
      ++sampler_fires;
      metrics.SampleAll(sim_.Now());
      if (sim_.pending_events() > 0) {
        sim_.Schedule(config_.metrics_interval, [&sample] { sample(); });
      }
    };
    sim_.Schedule(config_.metrics_interval, [&sample] { sample(); });
  }
  for (ClientState& client : clients_) {
    const SimTime idle = client.generator->SampleIdle();
    sim_.Schedule(idle, [this, index = client.index] {
      BeginTxn(clients_[static_cast<size_t>(index)]);
    });
  }
  sim_.Run(config_.max_sim_time == 0 ? -1 : config_.max_sim_time);
  result_.timed_out = result_.commits < config_.measured_txns;
  result_.events = sim_.events_executed() - sampler_fires;
  result_.end_time = sim_.Now();
  result_.network = network_->stats();
  result_.max_link_utilization = network_->MaxLinkUtilization(sim_.Now());
  result_.queue_delay_p99 =
      network_->queue_delay_histogram().Percentile(0.99);
  result_.obs_trace = tracer_.Take();
  if (trace_sink_ != nullptr) {
    trace_sink_->Flush();
    result_.trace_stream_bytes = trace_sink_->bytes_written();
    result_.trace_peak_buffer = trace_sink_->peak_buffer_bytes();
    result_.trace_write_failed = !trace_sink_->ok();
  }
  if (config_.metrics_interval > 0) {
    result_.metrics = metrics.TakeRows();
    result_.metric_names = metrics.TakeNames();
  }
  FillProtocolMetrics(&result_);
  return std::move(result_);
}

void EngineBase::BeginTxn(ClientState& client) {
  auto run = std::make_unique<TxnRun>();
  run->id = next_txn_id_++;
  run->client_index = client.index;
  run->spec = client.generator->NextTxn();
  run->spec.id = run->id;
  run->start_time = sim_.Now();
  if (client.current != nullptr) txn_client_.erase(client.current->id);
  txn_client_[run->id] = client.index;
  client.current = std::move(run);
  client.current->request_time = sim_.Now();
  EmitTxnBegin(*client.current, tracer_);
  IssueRequest(*client.current);
}

void EngineBase::ScheduleNextTxn(ClientState& client) {
  const SimTime idle = client.generator->SampleIdle();
  sim_.Schedule(idle, [this, index = client.index] {
    BeginTxn(clients_[static_cast<size_t>(index)]);
  });
}

void EngineBase::OpGranted(TxnRun& run, Version version_read) {
  GTPL_CHECK(!run.finished);
  // Span accounting: the grant/data flight's network components come from
  // the delivery being executed right now — valid only when this call is
  // inside a delivery *to this client* (cache-hit grants and timer-driven
  // grants get zero network attribution). What remains of the wait after
  // subtracting the request and grant flights is server-side lock wait.
  SimTime grant_prop = 0;
  SimTime grant_queue = 0;
  const net::DeliveryInfo& d = network_->current_delivery();
  if (d.active && d.to == run.site()) {
    grant_prop = d.Propagation();
    grant_queue = d.Queueing();
  }
  RecordGrant(run, sim_.Now() - run.request_time, run.req_prop + grant_prop,
              run.req_queue + grant_queue, measuring(), result_, tracer_);
  run.pending_version = version_read;
  ClientState& client = clients_[static_cast<size_t>(run.client_index)];
  const SimTime think = client.generator->SampleThink();
  run.span.execution += think;
  const TxnId txn = run.id;
  sim_.Schedule(think, [this, txn, index = run.client_index] {
    TxnRun* current = clients_[static_cast<size_t>(index)].current.get();
    if (current == nullptr || current->id != txn) return;  // superseded
    FinishOp(*current);
  });
}

void EngineBase::FinishOp(TxnRun& run) {
  if (run.doomed || run.finished) return;  // abort decision outran us
  RecordOp(run);
  if (run.LastOp()) {
    run.commit_start = sim_.Now();
    run.committing = true;
    StartCommit(run);
    return;
  }
  ++run.current_op;
  run.request_time = sim_.Now();
  IssueRequest(run);
}

void EngineBase::CommitLocally(TxnRun& run) {
  GTPL_CHECK(!run.finished);
  GTPL_CHECK(!run.doomed);
  ClientState& client = clients_[static_cast<size_t>(run.client_index)];
  client.restart_streak = 0;
  RecordCommit(run, sim_.Now(), measuring(), config_.record_history, result_,
               tracer_);
  DoCommit(run);
  if (result_.commits >= config_.measured_txns) {
    sim_.Stop();
    return;
  }
  ScheduleNextTxn(client);
}

void EngineBase::RegisterMetrics(obs::MetricsRegistry* metrics) {
  // Engine-global gauges every protocol shares. Subclasses override, call
  // this first, then append their own series (the registration order IS the
  // series order in the output file).
  metrics->Register("active_txns", -1, [this] {
    int64_t active = 0;
    for (const ClientState& client : clients_) {
      if (client.current != nullptr && !client.current->finished) ++active;
    }
    return active;
  });
  metrics->Register("commits_total", -1,
                    [this] { return result_.total_commits; });
  metrics->Register("aborts_total", -1,
                    [this] { return result_.total_aborts; });
  metrics->Register("nic_backlog", -1, [this] {
    net::LinkModel* link = network_->link_model();
    return link == nullptr ? 0 : link->MaxNicBacklog(sim_.Now());
  });
  // Cross-server commits with votes outstanding (TxnRun::commit).
  metrics->Register("inflight_2pc", -1, [this] {
    int64_t inflight = 0;
    for (const ClientState& client : clients_) {
      const TxnRun* run = client.current.get();
      if (run != nullptr && !run->finished && run->commit) ++inflight;
    }
    return inflight;
  });
}

void EngineBase::ServerAbortDecision(TxnId txn, SiteId server_site) {
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished || run->doomed) return;
  run->doomed = true;
  const int32_t index = run->client_index;
  const SiteId client_site = run->site();
  // The abort is counted at decision time; the client reacts only when the
  // notice arrives one latency later.
  RecordAbort(txn, client_site, server_site, sim_.Now() - run->start_time,
              static_cast<int64_t>(run->records.size()), measuring(), result_,
              tracer_);
  if (config_.instant_abort_notice) {
    sim_.Schedule(0, [this, txn, index] { AbortNoticeArrived(txn, index); });
  } else {
    network_->Send(server_site, client_site, "abort",
                   [this, txn, index] { AbortNoticeArrived(txn, index); });
  }
}

void EngineBase::NoteRequestAtServer(TxnId txn, ItemId item, LockMode mode,
                                     int32_t shard) {
  TxnRun* run = FindRun(txn);
  const net::DeliveryInfo& d = network_->current_delivery();
  const SimTime propagation = d.active ? d.Propagation() : 0;
  const SimTime queueing = d.active ? d.Queueing() : 0;
  if (run != nullptr && !run->finished && d.active &&
      run->current_op < run->spec.ops.size() &&
      run->op().item == item) {
    run->req_prop = propagation;
    run->req_queue = queueing;
  }
  EmitLockRequest(txn, run == nullptr ? SiteId{-1} : run->site(), item, mode,
                  shard, propagation, queueing, tracer_);
}

void EngineBase::AbortNoticeArrived(TxnId txn, int32_t client_index) {
  ClientState& client = clients_[static_cast<size_t>(client_index)];
  TxnRun* run = client.current.get();
  if (run == nullptr || run->id != txn || run->finished) return;
  run->finished = true;
  ++client.restart_streak;
  OnClientAborted(*run);
  ScheduleNextTxn(client);
}

}  // namespace gtpl::proto
