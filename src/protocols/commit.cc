// The commit-path registry, and EngineBase's implementation of the paths:
// client-coordinated 2PC (kClassic) and its geo-aware variants (DESIGN.md
// §13). Each live commit keeps its state on its TxnRun.

#include "protocols/commit.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "net/latency_model.h"
#include "protocols/engine.h"

namespace gtpl::proto {

const CommitPathRegistry& CommitPaths() {
  static const CommitPathRegistry* paths = new CommitPathRegistry(
      "commit path",
      {
          {"classic",
           "client-coordinated 2PC, parallel prepare fan-out (default)",
           CommitPath::kClassic},
          {"early",
           "speculative prepare piggybacked on each shard's last operation",
           CommitPath::kEarly},
          {"fastpath", "one-round commit for single-write-shard transactions",
           CommitPath::kFastPath},
          {"coord",
           "per-txn coordinator placement: client vs write-heaviest server",
           CommitPath::kCoord},
      });
  return *paths;
}

const char* ToString(CommitPath path) { return CommitPaths().For(path).name; }

int32_t ExpectedCommitFlights(CommitPath path, bool single_write_shard,
                              bool remote_coordinator) {
  switch (path) {
    case CommitPath::kClassic:
      return 2;  // prepare out + vote back
    case CommitPath::kEarly:
      return 0;  // every vote is home before the commit point
    case CommitPath::kFastPath:
      return single_write_shard ? 0 : 2;
    case CommitPath::kCoord:
      return remote_coordinator ? 4 : 2;  // + handoff and ack legs
  }
  return 2;
}

// ---------------------------------------------------------------------------
// EngineBase: the commit paths
// ---------------------------------------------------------------------------

void EngineBase::StartCommit(TxnRun& run) {
  std::vector<int32_t> participants = ShardsOf(config_, run);
  if (participants.size() <= 1) {
    // Single-shard transaction: the ordinary commit path of the paper's
    // single-server model (and the only path when num_servers == 1).
    CommitLocally(run);
    return;
  }
  GTPL_CHECK(!run.finished);
  GTPL_CHECK(!run.doomed);
  switch (config_.commit_path) {
    case CommitPath::kClassic:
      StartClassic(run, std::move(participants));
      return;
    case CommitPath::kEarly:
      StartEarly(run, std::move(participants));
      return;
    case CommitPath::kFastPath:
      if (ShardsOf(config_, run, /*writes_only=*/true).size() <= 1) {
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

void EngineBase::StartClassic(TxnRun& run, std::vector<int32_t> participants,
                              bool fallback) {
  ClientState& client = ClientAt(run.client_index);
  // Phase one: the coordinator (client) forces its prepare record, then
  // asks every participant server to vote.
  client.wal->Force(client.wal->Append());
  CommitCtx& ctx = run.commit.emplace();
  ctx.votes_pending = static_cast<int32_t>(participants.size());
  ctx.prepares_pending = static_cast<int32_t>(participants.size());
  ctx.participants = std::move(participants);
  ctx.flights = 2;
  ctx.vote_site = run.site();
  ctx.fallback = fallback;
  for (int32_t shard : ctx.participants) SendPrepare(shard, run);
}

void EngineBase::SendPrepare(int32_t shard, TxnRun& run) {
  network().Send(run.site(), ServerSiteOf(shard), "prepare",
                 [this, shard, txn = run.id] {
                   OnPrepareArrived(shard, txn, /*speculative=*/false);
                 });
}

void EngineBase::PreRequestHook(TxnRun& run) {
  if (config_.commit_path != CommitPath::kEarly || num_servers() <= 1) {
    return;
  }
  if (!run.early) {
    run.early = std::make_unique<EarlyCtx>();
    EarlyCtx& early = *run.early;
    for (size_t i = 0; i < run.spec.ops.size(); ++i) {
      early.last_touch[ShardOf(run.spec.ops[i].item)] = i;
    }
    early.active = early.last_touch.size() > 1;
  }
  EarlyCtx& early = *run.early;
  if (!early.active) return;
  const int32_t shard = ShardOf(run.op().item);
  auto last = early.last_touch.find(shard);
  if (last == early.last_touch.end() || last->second != run.current_op) {
    return;
  }
  // This request is the last one touching `shard`: piggyback a speculative
  // prepare so the vote overlaps the rest of the execution.
  ++early.prepares_sent;
  if (measuring()) ++result_.early_prepares;
  network().Send(run.site(), ServerSiteOf(shard), "prepare(early)",
                 [this, shard, txn = run.id] {
                   OnPrepareArrived(shard, txn, /*speculative=*/true);
                 });
}

void EngineBase::StartEarly(TxnRun& run, std::vector<int32_t> participants) {
  ClientState& client = ClientAt(run.client_index);
  // The coordinator still forces its prepare record — the commit point must
  // be recoverable — but the prepares themselves already flew with the
  // operations, so it then only waits for votes not yet home.
  client.wal->Force(client.wal->Append());
  GTPL_CHECK(run.early && run.early->active)
      << "kEarly commit without speculative prepares";
  const EarlyCtx& early = *run.early;
  GTPL_CHECK_EQ(early.prepares_sent, static_cast<int32_t>(participants.size()));
  int32_t have = 0;
  for (int32_t shard : participants) {
    have += early.votes.count(shard) > 0 ? 1 : 0;
  }
  CommitCtx& ctx = run.commit.emplace();
  ctx.votes_pending = static_cast<int32_t>(participants.size()) - have;
  ctx.participants = std::move(participants);
  ctx.vote_site = run.site();
  ctx.prepares_pending = 0;  // all prepares were speculative; sub-span 0
  ctx.flights = ctx.votes_pending == 0 ? 0 : 1;
  if (ctx.votes_pending == 0) FinishVotedCommit(run);
}

void EngineBase::StartFastPath(TxnRun& run,
                               const std::vector<int32_t>& participants) {
  // Single-write-shard transaction: no prepare/vote round at all. The
  // client's forced commit record (CommitLocally) is the commit point, and
  // the engine's ordinary release/forward messages carry the piggybacked
  // validation + decision to every participant — the read-only shards
  // still hold locks for a non-doomed transaction, so the validation cannot
  // fail (lock engines assert this in ServerOnRelease).
  if (measuring()) {
    ++result_.cross_server_commits;
    result_.commit_participants.Add(static_cast<double>(participants.size()));
    ++result_.fastpath_commits;
  }
  run.commit_flights = 0;
  CommitLocally(run);
}

int32_t EngineBase::ChooseCoordinator(
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

void EngineBase::StartCoord(TxnRun& run, std::vector<int32_t> participants,
                            int32_t coord_shard) {
  ClientState& client = ClientAt(run.client_index);
  // The client still forces its prepare record, then hands the whole 2PC to
  // the coordinator server: handoff -> prepares -> votes (at the
  // coordinator) -> decisions (from the coordinator) -> ack to the client.
  client.wal->Force(client.wal->Append());
  CommitCtx& ctx = run.commit.emplace();
  ctx.votes_pending = static_cast<int32_t>(participants.size());
  ctx.prepares_pending = static_cast<int32_t>(participants.size());
  ctx.participants = std::move(participants);
  ctx.flights = 4;  // handoff + prepare + vote + ack on the response path
  ctx.vote_site = ServerSiteOf(coord_shard);
  ctx.coord_shard = coord_shard;
  network().Send(run.site(), ServerSiteOf(coord_shard), "commit-handoff",
                 [this, coord_shard, txn = run.id] {
                   OnHandoffArrived(coord_shard, txn);
                 });
}

void EngineBase::OnHandoffArrived(int32_t coord_shard, TxnId txn) {
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished) return;
  if (run->doomed) {
    run->commit.reset();  // no votes will ever tally
    return;
  }
  GTPL_CHECK(run->commit) << "handoff without a commit context";
  // Fan the prepares over the (fast) server mesh; the coordinator's own
  // shard prepares locally below — never through the network, which would
  // charge a self-latency the real system does not pay.
  for (int32_t shard : run->commit->participants) {
    if (shard == coord_shard) continue;
    network().Send(ServerSiteOf(coord_shard), ServerSiteOf(shard), "prepare",
                   [this, shard, txn] {
                     OnPrepareArrived(shard, txn, /*speculative=*/false);
                   });
  }
  OnPrepareArrived(coord_shard, txn, /*speculative=*/false);
}

void EngineBase::OnAckArrived(TxnId txn) {
  TxnRun* run = FindRun(txn);
  GTPL_CHECK(run != nullptr && !run->finished)
      << "commit ack for a finished transaction";
  GTPL_CHECK(!run->doomed) << "commit ack for a doomed transaction";
  CommitLocally(*run);
}

void EngineBase::OnPrepareArrived(int32_t shard, TxnId txn,
                                  bool speculative) {
  EmitPrepare(txn, shard, ServerSiteOf(shard),
              speculative ? "speculative" : "", tracer_);
  const bool yes = ShardVote(shard, txn, speculative);
  // The participant forces its own prepare record before voting yes.
  if (yes) {
    server_wal_->Force(server_wal_->Append());
  }
  TxnRun* run = FindRun(txn);
  if (run == nullptr) return;  // coordinator already moved on; drop the vote
  const SiteId vote_to = speculative ? run->site() : PrepareLanded(*run);
  const SiteId vote_from = ServerSiteOf(shard);
  if (vote_to == vote_from) {
    // The coordinator server's own shard: the vote is local.
    OnVoteArrived(txn, shard, yes);
    return;
  }
  network().Send(vote_from, vote_to, "vote",
                 [this, txn, shard, yes] { OnVoteArrived(txn, shard, yes); });
}

SiteId EngineBase::PrepareLanded(TxnRun& run) {
  if (run.finished || !run.commit) return run.site();
  CommitCtx& ctx = *run.commit;
  if (--ctx.prepares_pending == 0) {
    // Last prepare of the fan-out landed: close the prepare sub-span.
    run.span.commit_prepare = sim_.Now() - run.commit_start;
  }
  return ctx.vote_site;
}

void EngineBase::OnVoteArrived(TxnId txn, int32_t shard, bool yes) {
  EmitVote(txn, shard, yes, tracer_);
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished) return;  // votes of dead runs drop
  // A shard votes no only for a transaction already dead there, and that
  // abort doomed the run before the vote left.
  GTPL_CHECK(yes || run->doomed) << "no vote for live txn " << txn;
  if (!run->commit) {
    // kEarly: a speculative vote arriving before the commit point. Bank it
    // for StartEarly's tally.
    if (run->doomed || !run->early || !run->early->active) return;
    run->early->votes.insert(shard);
    return;
  }
  if (--run->commit->votes_pending > 0) return;
  FinishVotedCommit(*run);
}

void EngineBase::FinishVotedCommit(TxnRun& run) {
  const CommitCtx ctx = std::move(*run.commit);
  run.commit.reset();
  if (run.finished || run.doomed) return;
  RecordVotedCommit(run, ctx, sim_.Now(), measuring(), result_);
  // Phase two: the decision travels to every participant; the local commit
  // (forced commit record, then the protocol's release messages) proceeds
  // in parallel — or, with a remote coordinator, after the ack flies home.
  const TxnId txn = run.id;
  const SiteId decision_from =
      ctx.coord_shard >= 0 ? ServerSiteOf(ctx.coord_shard) : run.site();
  run.decided_remotely = ctx.coord_shard >= 0;
  for (int32_t participant : ctx.participants) {
    if (participant == ctx.coord_shard) {
      OnDecisionArrived(participant, txn);  // the coordinator's own shard
      continue;
    }
    network().Send(
        decision_from, ServerSiteOf(participant), "commit-decision",
        [this, participant, txn] { OnDecisionArrived(participant, txn); });
  }
  if (run.decided_remotely) {
    network().Send(decision_from, run.site(), "commit-ack",
                   [this, txn] { OnAckArrived(txn); });
    return;
  }
  CommitLocally(run);
}

void EngineBase::OnDecisionArrived(int32_t shard, TxnId txn) {
  if (tracer_.enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kDecide;
    event.txn = txn;
    event.shard = shard;
    event.site = ServerSiteOf(shard);
    tracer_.Emit(std::move(event));
  }
  server_wal_->Append();  // the decision record
  OnCommitDecision(shard, txn);
}

}  // namespace gtpl::proto
