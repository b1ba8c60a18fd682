#include "protocols/sharded.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "net/latency_model.h"
#include "protocols/invariants.h"

namespace gtpl::proto {

// ---------------------------------------------------------------------------
// ShardedEngineBase: routing + client-coordinated two-phase commit
// ---------------------------------------------------------------------------

ShardedEngineBase::ShardedEngineBase(const SimConfig& config)
    : EngineBase(config) {
  items_per_shard_ =
      (config.workload.num_items + config.num_servers - 1) /
      config.num_servers;
}

int32_t ShardedEngineBase::ShardOf(ItemId item) const {
  if (config().shard_routing == ShardRouting::kRange) {
    return std::min(item / items_per_shard_, num_servers() - 1);
  }
  return item % num_servers();
}

std::vector<int32_t> ShardedEngineBase::ParticipantsOf(
    const TxnRun& run) const {
  std::vector<int32_t> shards;
  for (const workload::Operation& op : run.spec.ops) {
    shards.push_back(ShardOf(op.item));
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

std::vector<int32_t> ShardedEngineBase::WriteShardsOf(
    const TxnRun& run) const {
  std::vector<int32_t> shards;
  for (const workload::Operation& op : run.spec.ops) {
    if (op.mode == LockMode::kExclusive) shards.push_back(ShardOf(op.item));
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

void ShardedEngineBase::StartCommit(TxnRun& run) {
  std::vector<int32_t> participants = ParticipantsOf(run);
  if (participants.size() <= 1) {
    // Single-shard transaction: the ordinary commit path of the paper's
    // single-server model (and the only path when num_servers == 1).
    EngineBase::StartCommit(run);
    return;
  }
  GTPL_CHECK(!run.finished);
  GTPL_CHECK(!run.doomed);
  switch (config().commit_path) {
    case CommitPath::kClassic:
      StartClassic(run, std::move(participants));
      return;
    case CommitPath::kEarly:
      StartEarly(run, std::move(participants));
      return;
    case CommitPath::kFastPath:
      if (WriteShardsOf(run).size() <= 1) {
        StartFastPath(run, participants);
      } else {
        StartClassic(run, std::move(participants));
      }
      return;
    case CommitPath::kCoord: {
      const int32_t coord = ChooseCoordinator(run, participants);
      if (coord < 0) {
        StartClassic(run, std::move(participants));
      } else {
        StartCoord(run, std::move(participants), coord);
      }
      return;
    }
  }
  GTPL_CHECK(false) << "unhandled commit path";
}

void ShardedEngineBase::StartClassic(TxnRun& run,
                                     std::vector<int32_t> participants) {
  const TxnId txn = run.id;
  ClientState& client = ClientAt(run.client_index);
  // Phase one: the coordinator (client) forces its prepare record, then
  // asks every participant server to vote.
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, txn,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  CommitCtx ctx;
  ctx.votes_pending = static_cast<int32_t>(participants.size());
  ctx.prepares_pending = static_cast<int32_t>(participants.size());
  ctx.participants = participants;
  ctx.flights = 2;
  ctx.vote_site = run.site();
  commits_[txn] = std::move(ctx);
  const SiteId from = run.site();
  auto send_prepares = [this, txn, from,
                        participants = std::move(participants)] {
    TxnRun* current = FindRun(txn);
    if (current == nullptr || current->finished || current->doomed) {
      commits_.erase(txn);
      return;
    }
    commits_.at(txn).sent_time = simulator().Now();
    for (int32_t shard : participants) {
      network().Send(from, ServerSiteOf(shard), "prepare", [this, shard, txn] {
        OnPrepareArrived(shard, txn, /*speculative=*/false);
      });
    }
  };
  if (force_delay > 0) {
    simulator().Schedule(force_delay, std::move(send_prepares));
  } else {
    send_prepares();
  }
}

void ShardedEngineBase::PreRequestHook(TxnRun& run) {
  if (config().commit_path != CommitPath::kEarly || num_servers() <= 1) {
    return;
  }
  auto [it, inserted] = early_.try_emplace(run.id);
  EarlyCtx& early = it->second;
  if (inserted) {
    for (size_t i = 0; i < run.spec.ops.size(); ++i) {
      early.last_touch[ShardOf(run.spec.ops[i].item)] = i;
    }
    early.active = early.last_touch.size() > 1;
  }
  if (!early.active) return;
  const int32_t shard = ShardOf(run.op().item);
  auto last = early.last_touch.find(shard);
  if (last == early.last_touch.end() || last->second != run.current_op) {
    return;
  }
  // This request is the last one touching `shard`: piggyback a speculative
  // prepare so the vote overlaps the rest of the execution.
  ++early.prepares_sent;
  if (measuring()) ++early_prepares_;
  network().Send(run.site(), ServerSiteOf(shard), "prepare(early)",
                 [this, shard, txn = run.id] {
                   OnPrepareArrived(shard, txn, /*speculative=*/true);
                 });
}

void ShardedEngineBase::StartEarly(TxnRun& run,
                                   std::vector<int32_t> participants) {
  const TxnId txn = run.id;
  ClientState& client = ClientAt(run.client_index);
  // The coordinator still forces its prepare record — the commit point must
  // be recoverable — but the prepares themselves already flew with the
  // operations, so it then only waits for votes not yet home.
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, txn,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  auto begin_wait = [this, txn, participants = std::move(participants)] {
    TxnRun* current = FindRun(txn);
    if (current == nullptr || current->finished || current->doomed) return;
    auto early_it = early_.find(txn);
    GTPL_CHECK(early_it != early_.end() && early_it->second.active)
        << "kEarly commit without speculative prepares";
    GTPL_CHECK_EQ(early_it->second.prepares_sent,
                  static_cast<int32_t>(participants.size()));
    CommitCtx ctx;
    ctx.participants = participants;
    ctx.vote_site = current->site();
    ctx.sent_time = simulator().Now();
    ctx.prepares_pending = 0;  // all prepares were speculative; sub-span 0
    int32_t have = 0;
    for (int32_t shard : participants) {
      have += early_it->second.votes.count(shard) > 0 ? 1 : 0;
    }
    ctx.votes_pending = static_cast<int32_t>(participants.size()) - have;
    ctx.flights = ctx.votes_pending == 0 ? 0 : 1;
    const bool complete = ctx.votes_pending == 0;
    commits_[txn] = std::move(ctx);
    if (complete) FinishVotedCommit(txn);
  };
  if (force_delay > 0) {
    simulator().Schedule(force_delay, std::move(begin_wait));
  } else {
    begin_wait();
  }
}

void ShardedEngineBase::StartFastPath(
    TxnRun& run, const std::vector<int32_t>& participants) {
  // Single-write-shard transaction: no prepare/vote round at all. The
  // client's forced commit record (EngineBase::StartCommit) is the commit
  // point, and the engine's ordinary release/forward messages carry the
  // piggybacked validation + decision to every participant — the read-only
  // shards still hold locks for a non-doomed transaction, so the
  // validation cannot fail (lock engines assert this in ServerOnRelease).
  if (measuring()) {
    ++cross_server_commits_;
    commit_participants_.Add(static_cast<double>(participants.size()));
    ++fastpath_commits_;
  }
  run.commit_flights = 0;
  EngineBase::StartCommit(run);
}

int32_t ShardedEngineBase::ChooseCoordinator(
    const TxnRun& run, const std::vector<int32_t>& participants) {
  // Candidate: the write-heaviest participant (most exclusive ops; lowest
  // shard id breaks ties). Read-only cross-server commits stay with the
  // client — there is no lock-hold pressure worth the handoff.
  std::unordered_map<int32_t, int32_t> writes;
  for (const workload::Operation& op : run.spec.ops) {
    if (op.mode == LockMode::kExclusive) ++writes[ShardOf(op.item)];
  }
  int32_t cand = -1;
  int32_t best = 0;
  for (int32_t shard : participants) {  // ascending; first max wins ties
    auto it = writes.find(shard);
    const int32_t count = it == writes.end() ? 0 : it->second;
    if (count > best) {
      best = count;
      cand = shard;
    }
  }
  if (cand < 0) return -1;
  // Score both placements from the static latency matrix (deterministic —
  // never the jitter stream). cost_* is the commit phase's contribution to
  // the client's response time; lag_* is when the commit decision reaches
  // the last participant (lock-hold time). Prefer the remote coordinator
  // only when its extra response cost is outweighed by the lock-hold
  // savings; under uniform latency that is never true, so kCoord degrades
  // to kClassic exactly (the equivalence suite pins this).
  const net::LatencyModel& lm = *network().latency_model();
  const SiteId client = run.site();
  const SiteId coord = ServerSiteOf(cand);
  SimTime cost_client = 0;
  SimTime decide_leg_client = 0;
  SimTime round_coord = 0;
  SimTime decide_leg_coord = 0;
  for (int32_t shard : participants) {
    const SiteId site = ServerSiteOf(shard);
    cost_client = std::max(cost_client, lm.BaseLatency(client, site) +
                                            lm.BaseLatency(site, client));
    decide_leg_client =
        std::max(decide_leg_client, lm.BaseLatency(client, site));
    if (shard == cand) continue;  // the coordinator's own shard votes inline
    round_coord = std::max(round_coord, lm.BaseLatency(coord, site) +
                                            lm.BaseLatency(site, coord));
    decide_leg_coord =
        std::max(decide_leg_coord, lm.BaseLatency(coord, site));
  }
  const SimTime handoff = lm.BaseLatency(client, coord);
  const SimTime votes_done = handoff + round_coord;
  const SimTime cost_coord = votes_done + lm.BaseLatency(coord, client);
  const SimTime lag_classic = cost_client + decide_leg_client;
  const SimTime lag_coord = votes_done + decide_leg_coord;
  const SimTime extra_response = cost_coord - cost_client;
  const SimTime lockhold_saving = lag_classic - lag_coord;
  return extra_response < lockhold_saving ? cand : -1;
}

void ShardedEngineBase::StartCoord(TxnRun& run,
                                   std::vector<int32_t> participants,
                                   int32_t coord_shard) {
  const TxnId txn = run.id;
  ClientState& client = ClientAt(run.client_index);
  // The client still forces its prepare record, then hands the whole 2PC to
  // the coordinator server: handoff -> prepares -> votes (at the
  // coordinator) -> decisions (from the coordinator) -> ack to the client.
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, txn,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  CommitCtx ctx;
  ctx.votes_pending = static_cast<int32_t>(participants.size());
  ctx.prepares_pending = static_cast<int32_t>(participants.size());
  ctx.participants = std::move(participants);
  ctx.flights = 4;  // handoff + prepare + vote + ack on the response path
  ctx.vote_site = ServerSiteOf(coord_shard);
  ctx.coord_shard = coord_shard;
  commits_[txn] = std::move(ctx);
  const SiteId from = run.site();
  auto send_handoff = [this, txn, from, coord_shard] {
    TxnRun* current = FindRun(txn);
    if (current == nullptr || current->finished || current->doomed) {
      commits_.erase(txn);
      return;
    }
    commits_.at(txn).sent_time = simulator().Now();
    network().Send(from, ServerSiteOf(coord_shard), "commit-handoff",
                   [this, coord_shard, txn] {
                     OnHandoffArrived(coord_shard, txn);
                   });
  };
  if (force_delay > 0) {
    simulator().Schedule(force_delay, std::move(send_handoff));
  } else {
    send_handoff();
  }
}

void ShardedEngineBase::OnHandoffArrived(int32_t coord_shard, TxnId txn) {
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished || run->doomed) {
    commits_.erase(txn);  // no votes will ever tally
    return;
  }
  auto it = commits_.find(txn);
  GTPL_CHECK(it != commits_.end()) << "handoff without a commit context";
  const std::vector<int32_t> participants = it->second.participants;
  // Fan the prepares over the (fast) server mesh; the coordinator's own
  // shard prepares locally below — never through the network, which would
  // charge a self-latency the real system does not pay.
  for (int32_t shard : participants) {
    if (shard == coord_shard) continue;
    network().Send(ServerSiteOf(coord_shard), ServerSiteOf(shard), "prepare",
                   [this, shard, txn] {
                     OnPrepareArrived(shard, txn, /*speculative=*/false);
                   });
  }
  OnPrepareArrived(coord_shard, txn, /*speculative=*/false);
}

void ShardedEngineBase::OnAckArrived(TxnId txn) {
  TxnRun* run = FindRun(txn);
  GTPL_CHECK(run != nullptr && !run->finished)
      << "commit ack for a finished transaction";
  GTPL_CHECK(!run->doomed) << "commit ack for a doomed transaction";
  EngineBase::StartCommit(*run);
}

bool ShardedEngineBase::RemoteCoordinated(TxnId txn) const {
  return remote_decided_.count(txn) > 0;
}

void ShardedEngineBase::OnTxnClosed(const TxnRun& run) {
  commits_.erase(run.id);
  early_.erase(run.id);
  remote_decided_.erase(run.id);
}

void ShardedEngineBase::OnPrepareArrived(int32_t shard, TxnId txn,
                                         bool speculative) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kPrepare;
    event.txn = txn;
    event.shard = shard;
    event.site = ServerSiteOf(shard);
    if (speculative) event.label = "speculative";
    tracer().Emit(std::move(event));
  }
  const bool yes = ShardVote(shard, txn, speculative);
  // The participant forces its own prepare record before voting yes.
  if (yes) {
    const int64_t lsn = server_wal().Append(db::LogRecordKind::kPrepare, txn,
                                            kInvalidItem, 0);
    server_wal().Force(lsn);
  }
  TxnRun* run = FindRun(txn);
  if (run == nullptr) return;  // coordinator already moved on; drop the vote
  SiteId vote_to = run->site();
  if (!speculative) {
    auto it = commits_.find(txn);
    if (it != commits_.end()) {
      CommitCtx& ctx = it->second;
      if (--ctx.prepares_pending == 0 && !run->finished) {
        // Last prepare of the fan-out landed: close the prepare sub-span.
        run->span.commit_prepare = simulator().Now() - ctx.sent_time;
      }
      vote_to = ctx.vote_site;
    }
  }
  const SiteId vote_from = ServerSiteOf(shard);
  if (vote_to == vote_from) {
    // The coordinator server's own shard: the vote is local.
    OnVoteArrived(txn, shard, yes);
    return;
  }
  network().Send(vote_from, vote_to, "vote",
                 [this, txn, shard, yes] { OnVoteArrived(txn, shard, yes); });
}

void ShardedEngineBase::OnVoteArrived(TxnId txn, int32_t shard, bool yes) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kVote;
    event.txn = txn;
    event.shard = shard;
    event.flag = yes;
    tracer().Emit(std::move(event));
  }
  auto it = commits_.find(txn);
  if (it == commits_.end()) {
    // kEarly: a speculative vote arriving before the commit point. Bank it
    // for StartEarly's tally; votes of dead runs are dropped.
    auto early_it = early_.find(txn);
    if (early_it == early_.end() || !early_it->second.active) return;
    TxnRun* run = FindRun(txn);
    if (run == nullptr || run->finished || run->doomed) return;
    if (yes) early_it->second.votes.insert(shard);
    return;
  }
  CommitCtx& ctx = it->second;
  ctx.all_yes = ctx.all_yes && yes;
  if (--ctx.votes_pending > 0) return;
  FinishVotedCommit(txn);
}

void ShardedEngineBase::FinishVotedCommit(TxnId txn) {
  auto it = commits_.find(txn);
  GTPL_CHECK(it != commits_.end());
  const bool all_yes = it->second.all_yes;
  const CommitCtx ctx = std::move(it->second);
  commits_.erase(it);
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished || run->doomed) return;
  if (!all_yes) {
    // A no vote means that shard's server had already aborted the
    // transaction, and its abort decision doomed the run instantly — so
    // this branch is unreachable in practice; kept as a safety net.
    return;
  }
  // Close the vote sub-span: everything since the fan-out began that the
  // prepare sub-span did not absorb.
  run->span.commit_vote =
      simulator().Now() - ctx.sent_time - run->span.commit_prepare;
  GTPL_CHECK_GE(run->span.commit_vote, 0);
  if (measuring()) {
    ++cross_server_commits_;
    commit_participants_.Add(static_cast<double>(ctx.participants.size()));
    if (ctx.coord_shard >= 0) ++coord_remote_commits_;
  }
  // Phase two: the decision travels to every participant; the local commit
  // (forced commit record, then the protocol's release messages) proceeds
  // in parallel — or, with a remote coordinator, after the ack flies home.
  const SiteId decision_from =
      ctx.coord_shard >= 0 ? ServerSiteOf(ctx.coord_shard) : run->site();
  if (ctx.coord_shard >= 0) remote_decided_.insert(txn);
  for (int32_t participant : ctx.participants) {
    if (participant == ctx.coord_shard) {
      OnDecisionArrived(participant, txn);  // the coordinator's own shard
      continue;
    }
    network().Send(
        decision_from, ServerSiteOf(participant), "commit-decision",
        [this, participant, txn] { OnDecisionArrived(participant, txn); });
  }
  run->commit_flights = ctx.flights;
  if (ctx.coord_shard >= 0) {
    network().Send(decision_from, run->site(), "commit-ack",
                   [this, txn] { OnAckArrived(txn); });
    return;
  }
  EngineBase::StartCommit(*run);
}

void ShardedEngineBase::OnDecisionArrived(int32_t shard, TxnId txn) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kDecide;
    event.txn = txn;
    event.shard = shard;
    event.site = ServerSiteOf(shard);
    tracer().Emit(std::move(event));
  }
  server_wal().Append(db::LogRecordKind::kCommit, txn, kInvalidItem, 0);
  OnCommitDecision(shard, txn);
}

void ShardedEngineBase::FillProtocolMetrics(RunResult* result) {
  result->cross_server_commits = cross_server_commits_;
  result->commit_participants = commit_participants_;
  result->fastpath_commits = fastpath_commits_;
  result->early_prepares = early_prepares_;
  result->coord_remote_commits = coord_remote_commits_;
  result->commit_path_fallbacks = commit_path_fallbacks_;
}

void ShardedEngineBase::RegisterMetrics(obs::MetricsRegistry* metrics) {
  EngineBase::RegisterMetrics(metrics);
  metrics->Register("inflight_2pc", -1, [this] {
    return static_cast<int64_t>(commits_.size());
  });
}

// ---------------------------------------------------------------------------
// ShardedG2plEngine
// ---------------------------------------------------------------------------

ShardedG2plEngine::ShardedG2plEngine(const SimConfig& config)
    : ShardedEngineBase(config) {
  coordinator_ = std::make_unique<core::ShardCoordinator>();
  wms_.reserve(static_cast<size_t>(config.num_servers));
  for (int32_t shard = 0; shard < config.num_servers; ++shard) {
    core::WindowManager::Callbacks callbacks;
    callbacks.dispatch = [this, shard](
                             ItemId item, Version version,
                             std::shared_ptr<const core::ForwardList> fl) {
      WmDispatch(shard, item, version, std::move(fl));
    };
    callbacks.abort = [this, shard](TxnId txn, SiteId client_site) {
      WmAbort(shard, txn, client_site);
    };
    callbacks.expand = [this, shard](
                           ItemId item, Version version,
                           std::shared_ptr<const core::ForwardList> fl,
                           TxnId txn, SiteId client_site,
                           int32_t member_index) {
      WmExpand(shard, item, version, std::move(fl), txn, client_site,
               member_index);
    };
    callbacks.can_abort = [this](TxnId txn) {
      TxnRun* run = FindRun(txn);
      return run != nullptr && !run->finished && !run->doomed;
    };
    wms_.push_back(std::make_unique<core::WindowManager>(
        config.workload.num_items, config.g2pl, &store(),
        std::move(callbacks), coordinator_.get()));
  }
}

ShardedG2plEngine::TxnState& ShardedG2plEngine::EnsureTxn(
    TxnId txn, int32_t client_index) {
  auto [it, inserted] = txns_.try_emplace(txn);
  if (inserted) {
    GTPL_CHECK(drained_.count(txn) == 0)
        << "g-2PL state re-created for drained txn " << txn;
    it->second.client_index = client_index;
  }
  return it->second;
}

void ShardedG2plEngine::SendRequest(TxnRun& run) {
  const TxnId txn = run.id;
  const SiteId site = run.site();
  const workload::Operation op = run.op();
  const int32_t restarts = ClientAt(run.client_index).restart_streak;
  EnsureTxn(txn, run.client_index);
  const int32_t shard = ShardOf(op.item);
  network().Send(site, ServerSiteOf(shard), "lock-request",
                 [this, shard, txn, site, op, restarts] {
                   NoteRequestAtServer(txn, op.item, op.mode, shard);
                   wms_[static_cast<size_t>(shard)]->OnRequest(
                       txn, site, op.item, op.mode, restarts);
                 });
}

void ShardedG2plEngine::WmDispatch(
    int32_t shard, ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWindowDispatch;
    event.item = item;
    event.shard = shard;
    event.payload = static_cast<int64_t>(version);
    event.entries = SnapshotForwardList(*fl);
    tracer().Emit(std::move(event));
    obs::TraceEvent audit;
    audit.kind = obs::EventKind::kGraphCheck;
    audit.item = item;
    audit.shard = shard;
    audit.flag = coordinator_->graph().IsAcyclic();
    tracer().Emit(std::move(audit));
  }
  for (int32_t e = 0; e < fl->num_entries(); ++e) {
    for (const core::FlMember& m : fl->entry(e).members) {
      TxnState& ts = EnsureTxn(m.txn, m.client - 1);
      ++ts.slots_outstanding;
      ts.slot_items.push_back(item);
    }
  }
  DeliverToEntry(ServerSiteOf(shard), item, version, std::move(fl), 0);
}

void ShardedG2plEngine::WmAbort(int32_t shard, TxnId txn,
                                SiteId client_site) {
  ServerAbortDecision(txn, client_site, ServerSiteOf(shard));
}

void ShardedG2plEngine::WmExpand(int32_t shard, ItemId item, Version version,
                                 std::shared_ptr<const core::ForwardList> fl,
                                 TxnId txn, SiteId client_site,
                                 int32_t member_index) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWindowExpand;
    event.txn = txn;
    event.item = item;
    event.shard = shard;
    event.payload = static_cast<int64_t>(version);
    event.entries = SnapshotForwardList(*fl);
    tracer().Emit(std::move(event));
    obs::TraceEvent audit;
    audit.kind = obs::EventKind::kGraphCheck;
    audit.item = item;
    audit.shard = shard;
    audit.flag = coordinator_->graph().IsAcyclic();
    tracer().Emit(std::move(audit));
  }
  TxnState& ts = EnsureTxn(txn, client_site - 1);
  ++ts.slots_outstanding;
  ts.slot_items.push_back(item);
  network().Send(ServerSiteOf(shard), client_site, "data(expand)",
                 [this, txn, item, version, fl = std::move(fl),
                  member_index] {
                   OnData(txn, item, version, fl, 0, member_index, 0);
                 });
}

void ShardedG2plEngine::DeliverToEntry(
    SiteId from_site, ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl, int32_t entry_index) {
  const uint64_t payload =
      net::kDataPayload +
      net::kFlSlotPayload * static_cast<uint64_t>(fl->num_members());
  const core::FlEntry& entry = fl->entry(entry_index);
  if (!entry.is_read_group) {
    const core::FlMember writer = entry.members[0];
    network().Send(
        from_site, writer.client, "data",
        [this, txn = writer.txn, item, version, fl, entry_index] {
          OnData(txn, item, version, fl, entry_index, 0, 0);
        },
        payload);
    return;
  }
  for (int32_t j = 0; j < entry.size(); ++j) {
    const core::FlMember reader = entry.members[static_cast<size_t>(j)];
    network().Send(
        from_site, reader.client, "data(copy)",
        [this, txn = reader.txn, item, version, fl, entry_index, j] {
          OnData(txn, item, version, fl, entry_index, j, 0);
        },
        payload);
  }
  if (config().g2pl.mr1w && entry_index + 1 < fl->num_entries()) {
    const core::FlEntry& next = fl->entry(entry_index + 1);
    GTPL_CHECK(!next.is_read_group);
    const core::FlMember writer = next.members[0];
    network().Send(
        from_site, writer.client, "data(early)",
        [this, txn = writer.txn, item, version, fl, entry_index,
         releases = entry.size()] {
          OnData(txn, item, version, fl, entry_index + 1, 0, releases);
        },
        payload);
  }
}

void ShardedG2plEngine::OnData(TxnId txn, ItemId item, Version version,
                               std::shared_ptr<const core::ForwardList> fl,
                               int32_t entry_index, int32_t member_index,
                               int32_t early_releases) {
  if (drained_.count(txn) > 0) return;
  Obligation& ob = obligations_[ObKey{txn, item}];
  if (ob.data_arrived) {
    if (early_releases > 0) ob.releases_needed = early_releases;
  } else {
    ob.fl = std::move(fl);
    ob.entry = entry_index;
    ob.member = member_index;
    ob.is_writer = !ob.fl->entry(entry_index).is_read_group;
    ob.data_arrived = true;
    ob.version = version;
    if (early_releases > 0) ob.releases_needed = early_releases;
  }
  TxnState& ts = txns_.at(txn);
  if (ts.finished) {
    TryForward(txn, item);
    return;
  }
  MaybeGrant(txn, item, ob);
}

void ShardedG2plEngine::OnReaderRelease(
    TxnId writer_txn, ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl, int32_t writer_entry_index) {
  if (drained_.count(writer_txn) > 0) return;
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kReaderRelease;
    event.txn = writer_txn;
    event.item = item;
    event.shard = ShardOf(item);
    tracer().Emit(std::move(event));
  }
  Obligation& ob = obligations_[ObKey{writer_txn, item}];
  if (ob.fl == nullptr) {
    ob.fl = std::move(fl);
    ob.entry = writer_entry_index;
    ob.member = 0;
    ob.is_writer = true;
    GTPL_CHECK_GT(writer_entry_index, 0);
    ob.releases_needed = ob.fl->entry(writer_entry_index - 1).size();
  }
  ++ob.releases_received;
  GTPL_CHECK_LE(ob.releases_received, ob.releases_needed);
  if (!ob.data_arrived) {
    ob.data_arrived = true;
    ob.version = version;
  }
  if (ob.forwarded) return;
  TxnState& ts = txns_.at(writer_txn);
  if (ts.finished) {
    TryForward(writer_txn, item);
  } else {
    MaybeGrant(writer_txn, item, ob);
  }
}

void ShardedG2plEngine::MaybeGrant(TxnId txn, ItemId item, Obligation& ob) {
  if (ob.granted || !ob.data_arrived) return;
  if (!config().g2pl.mr1w && ob.releases_received < ob.releases_needed) {
    return;
  }
  TxnRun* run = FindRun(txn);
  GTPL_CHECK(run != nullptr) << "live g-2PL txn without a run";
  if (run->doomed) return;
  GTPL_CHECK_EQ(run->op().item, item)
      << "grant does not match the sequentially outstanding operation";
  ob.granted = true;
  OpGranted(*run, ob.version);
}

void ShardedG2plEngine::TryForward(TxnId txn, ItemId item) {
  if (drained_.count(txn) > 0) return;
  auto it = obligations_.find(ObKey{txn, item});
  if (it == obligations_.end()) return;
  Obligation& ob = it->second;
  TxnState& ts = txns_.at(txn);
  if (ob.forwarded || !ob.data_arrived || !ts.finished) return;
  if (ts.committed && ob.releases_received < ob.releases_needed) return;
  ob.forwarded = true;
  if (ts.committed && ob.is_writer && tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWriterRelease;
    event.txn = txn;
    event.item = item;
    event.shard = ShardOf(item);
    tracer().Emit(std::move(event));
  }
  const Version version_out =
      ts.committed && ob.is_writer ? ob.version + 1 : ob.version;
  const SiteId from = ts.client_index + 1;
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kFlHandoff;
    event.txn = txn;
    event.site = from;
    event.item = item;
    event.shard = ShardOf(item);
    event.flag = ts.committed;
    event.mode = ob.is_writer ? 1 : 0;
    event.payload = static_cast<int64_t>(version_out);
    event.label = ob.fl->IsLastEntry(ob.entry)
                      ? "return"
                      : (!ob.is_writer ? "reader-release" : "forward");
    tracer().Emit(std::move(event));
  }
  if (ob.fl->IsLastEntry(ob.entry)) {
    const int32_t shard = ShardOf(item);
    network().Send(
        from, ServerSiteOf(shard), "return",
        [this, shard, item, version_out] {
          wms_[static_cast<size_t>(shard)]->OnReturn(item, version_out);
          MaybeGcClientLogs();
        },
        net::kControlPayload + net::kDataPayload);
  } else if (!ob.is_writer) {
    const core::FlEntry& next = ob.fl->entry(ob.entry + 1);
    GTPL_CHECK(!next.is_read_group);
    const core::FlMember writer = next.members[0];
    const uint64_t release_payload =
        config().g2pl.mr1w ? net::kControlPayload
                           : net::kControlPayload + net::kDataPayload;
    network().Send(
        from, writer.client, "reader-release",
        [this, wt = writer.txn, item, version_out, fl = ob.fl,
         we = ob.entry + 1] {
          OnReaderRelease(wt, item, version_out, fl, we);
        },
        release_payload);
  } else {
    DeliverToEntry(from, item, version_out, ob.fl, ob.entry + 1);
  }
  --ts.slots_outstanding;
  GTPL_CHECK_GE(ts.slots_outstanding, 0);
  CheckDrain(txn);
}

void ShardedG2plEngine::CheckDrain(TxnId txn) {
  if (drained_.count(txn) > 0) return;
  const TxnState& ts = txns_.at(txn);
  if (!ts.finished || ts.slots_outstanding != 0) return;
  drained_.insert(txn);
  // OnTxnDrained delegates to the shared coordinator, which retires the
  // transaction across every shard; any manager routes there.
  wms_[0]->OnTxnDrained(txn);
  for (ItemId item : ts.slot_items) obligations_.erase(ObKey{txn, item});
  // Retire the state too, so memory tracks in-flight transactions rather
  // than run length; drained_ keeps the id for the late-message checks.
  txns_.erase(txn);
}

void ShardedG2plEngine::DoCommit(TxnRun& run) {
  TxnState& ts = EnsureTxn(run.id, run.client_index);
  ts.finished = true;
  ts.committed = true;
  const std::vector<ItemId> items = ts.slot_items;  // TryForward may drain
  for (ItemId item : items) TryForward(run.id, item);
  CheckDrain(run.id);
}

void ShardedG2plEngine::OnClientAborted(TxnRun& run) {
  TxnState& ts = EnsureTxn(run.id, run.client_index);
  ts.finished = true;
  ts.committed = false;
  const std::vector<ItemId> items = ts.slot_items;
  for (ItemId item : items) TryForward(run.id, item);
  CheckDrain(run.id);
}

bool ShardedG2plEngine::ShardVote(int32_t shard, TxnId txn,
                                  bool speculative) {
  (void)shard;  // deadlock avoidance is global; every shard sees the same
  (void)speculative;  // the vote takes no commit-promise action either way
  return !coordinator_->IsAborted(txn);
}

void ShardedG2plEngine::OnCommitDecision(int32_t shard, TxnId txn) {
  // Nothing further server-side: in g-2PL the committed data itself
  // migrates along the forward lists; the servers learn outcomes from the
  // return messages. The base class already logged the decision.
  (void)shard;
  (void)txn;
}

void ShardedG2plEngine::FillProtocolMetrics(RunResult* result) {
  ShardedEngineBase::FillProtocolMetrics(result);
  int64_t requests = 0;
  int64_t cap_samples = 0;
  double cap_sample_sum = 0.0;
  int64_t touched_items = 0;
  double final_cap_sum = 0.0;
  for (const auto& wm : wms_) {
    result->windows_dispatched += wm->windows_dispatched();
    result->read_group_expansions += wm->expansions();
    requests += wm->total_dispatched_requests();
    if (const core::AdaptiveWindowController* ctl =
            wm->adaptive_controller()) {
      cap_samples += ctl->windows_sampled();
      cap_sample_sum += ctl->cap_sample_sum();
      touched_items += ctl->TouchedItems();
      final_cap_sum += ctl->FinalCapSum();
      result->cap_increases += ctl->cap_increases();
      result->cap_decreases += ctl->cap_decreases();
    }
  }
  result->mean_forward_list_length =
      result->windows_dispatched > 0
          ? static_cast<double>(requests) /
                static_cast<double>(result->windows_dispatched)
          : 0.0;
  result->mean_effective_cap =
      cap_samples > 0 ? cap_sample_sum / static_cast<double>(cap_samples)
                      : 0.0;
  result->final_effective_cap =
      touched_items > 0
          ? final_cap_sum / static_cast<double>(touched_items)
          : 0.0;
}

}  // namespace gtpl::proto
