#ifndef GTPL_PROTOCOLS_SHARDED_H_
#define GTPL_PROTOCOLS_SHARDED_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/forward_list.h"
#include "core/window_manager.h"
#include "protocols/engine.h"

namespace gtpl::proto {

/// Multi-server extension of the paper's model (ROADMAP's sharding item):
/// the item space is partitioned across `num_servers` simulated data
/// servers by hash or range, each server owning the per-item protocol state
/// for its shard. Clients still run one transaction at a time; each request
/// is routed to the owning server's site, so every data round is charged
/// the configured WAN latency by net::LatencyModel.
///
/// Commits that touched more than one server run a client-coordinated
/// two-phase commit: the client forces a prepare record, fans `prepare` to
/// every participant *in parallel* (all sends leave at the same simulated
/// instant, so the prepare phase costs max-RTT, not sum-RTT), collects
/// votes, and on unanimous yes sends the commit decision (then commits
/// locally as usual). Both rounds travel through the simulated network, so
/// a cross-server commit pays two extra latency rounds — the cost the
/// sharding bench quantifies. Transactions confined to one shard skip the
/// protocol entirely, so `num_servers == 1` is the paper's single-server
/// model: no 2PC, no extra messages (the golden tables pin its results).
///
/// That two-flight protocol is CommitPath::kClassic. The geo-aware commit
/// paths (protocols/commit.h, DESIGN.md §13) rework it per
/// config().commit_path:
///  - kEarly piggybacks a *speculative* prepare on the last operation that
///    touches each shard (PreRequestHook), overlapping the prepare/vote
///    round with the remaining execution; the commit point then blocks
///    only on votes not yet home (zero flights under pure propagation).
///    Sound because a vote is exactly "this shard has not aborted the
///    transaction", abort decisions doom a run instantly, and the
///    coordinator re-checks !doomed at the commit point — a stale yes vote
///    can never resurrect a doomed transaction. Speculative prepares do
///    NOT trigger release-at-prepare (the vote is not yet a commit
///    promise); see ShardVote's `speculative` flag.
///  - kFastPath commits transactions whose writes land on a single shard
///    without any prepare/vote round: the client's forced commit record is
///    the commit point and the engine's ordinary release/forward messages
///    carry the (implicit) decision — the read-only shards still hold
///    their locks, so the piggybacked validation cannot fail for a
///    non-doomed transaction (ServerOnRelease checks this).
///  - kCoord picks, per transaction, between the client and the server
///    co-located with the write-heaviest participant as coordinator, from
///    the static latency matrix (LatencyModel::BaseLatency, never the
///    jitter stream). A remote coordinator pays handoff + ack legs on the
///    client's response but delivers the decision to participants sooner
///    (lock-hold reduction), the right trade when the server mesh is much
///    faster than the WAN (config().server_latency).
/// Engines that override StartCommit with their own certification commit
/// (OCC) fall back to kClassic and count commit_path_fallbacks.
///
/// Determinism contract (DESIGN.md §8): the servers' *coordination plane*
/// (shared precedence graph / waits-for graph, abort decisions) is modeled
/// as instantaneous, like the paper's zero-cost server reordering; only the
/// data and commit paths pay latency.
class ShardedEngineBase : public EngineBase {
 public:
  explicit ShardedEngineBase(const SimConfig& config);

  int32_t num_servers() const { return config().num_servers; }

  /// Shard owning `item`, by the configured routing.
  int32_t ShardOf(ItemId item) const;

  /// Site id of shard `shard`'s server: shard 0 keeps kServerSite, extra
  /// shard k >= 1 lives at site num_clients + k.
  SiteId ServerSiteOf(int32_t shard) const {
    return shard == 0 ? kServerSite
                      : static_cast<SiteId>(num_clients() + shard);
  }

 protected:
  /// Distinct shards `run`'s operations touch, ascending.
  std::vector<int32_t> ParticipantsOf(const TxnRun& run) const;

  /// Distinct shards `run` *writes*, ascending (kFastPath eligibility and
  /// the kCoord write-heaviest choice both key off the spec's write set,
  /// which is static — tests recompute it from the spec).
  std::vector<int32_t> WriteShardsOf(const TxnRun& run) const;

  /// Commit entry point: single-shard transactions fall through to
  /// EngineBase::StartCommit; cross-server ones run the configured commit
  /// path (classic/early/fastpath/coord — see the class comment).
  void StartCommit(TxnRun& run) override;

  /// kEarly: piggyback a speculative prepare when the current op is the
  /// last one touching its shard (and the txn is cross-server).
  void PreRequestHook(TxnRun& run) override;

  /// Drop the commit/early contexts of a closed run (stale speculative
  /// votes must not leak into the client's next transaction, which reuses
  /// no txn id but the maps are keyed per txn and cleaned here).
  void OnTxnClosed(const TxnRun& run) override;

  /// Participant `shard`'s vote on committing `txn`, computed when the
  /// prepare message arrives at the server. `speculative` marks kEarly
  /// prepares sent before the commit point: the vote is advisory ("not
  /// aborted so far"), so engines must NOT take commit-promise actions on
  /// it (e.g. release-at-prepare).
  virtual bool ShardVote(int32_t shard, TxnId txn, bool speculative) = 0;

  /// The commit decision arrived at participant `shard` (phase two); the
  /// base already logged it to the server WAL and recorded the event.
  virtual void OnCommitDecision(int32_t shard, TxnId txn) = 0;

  /// Copies the commit-path counters (cross_server_commits, participants,
  /// sub-path tallies) into the result; subclasses override-and-call.
  void FillProtocolMetrics(RunResult* result) override;

  /// Adds the 2PC coordinator gauge (commits with votes outstanding);
  /// subclasses override-and-call.
  void RegisterMetrics(obs::MetricsRegistry* metrics) override;

  /// Whether `txn`'s commit decision was issued by a remote coordinator
  /// (kCoord): lock engines then release at decision arrival, ahead of the
  /// client's ack-delayed DoCommit. Cleared when the run closes.
  bool RemoteCoordinated(TxnId txn) const;

  /// Cross-server commit counters (copied out by FillProtocolMetrics).
  int64_t cross_server_commits_ = 0;
  stats::Welford commit_participants_;
  int64_t fastpath_commits_ = 0;
  int64_t early_prepares_ = 0;
  int64_t coord_remote_commits_ = 0;
  /// Cross-server commits that ran kClassic although another path was
  /// configured (OCC's certification commit increments this).
  int64_t commit_path_fallbacks_ = 0;

 private:
  struct CommitCtx {
    int32_t votes_pending = 0;
    bool all_yes = true;
    std::vector<int32_t> participants;
    /// When the prepare fan-out (or vote wait, for kEarly) actually began —
    /// after the coordinator's WAL force. Anchors the commit sub-spans.
    SimTime sent_time = 0;
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
  };

  /// kEarly per-txn state, built lazily on the first request.
  struct EarlyCtx {
    bool active = false;  // cross-server txn: speculative prepares flow
    /// shard -> index of the last op touching it (send point).
    std::unordered_map<int32_t, size_t> last_touch;
    /// Shards whose speculative yes votes are already home.
    std::unordered_set<int32_t> votes;
    int32_t prepares_sent = 0;
  };

  // The classic two-flight path, verbatim; also the fallback body for
  // fastpath (multi-write-shard txns) and coord (client-side choice).
  void StartClassic(TxnRun& run, std::vector<int32_t> participants);
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
  void OnVoteArrived(TxnId txn, int32_t shard, bool yes);
  void OnDecisionArrived(int32_t shard, TxnId txn);
  /// kCoord: the client's handoff reached the coordinator server; it fans
  /// the prepares (its own shard prepares locally, votes inline).
  void OnHandoffArrived(int32_t coord_shard, TxnId txn);
  /// kCoord: the coordinator's commit ack reached the client.
  void OnAckArrived(TxnId txn);
  /// All votes are in: erase the ctx, fan the decisions, finish the commit
  /// (or send the ack leg when a remote coordinator ran the rounds).
  void FinishVotedCommit(TxnId txn);

  int32_t items_per_shard_ = 1;  // range routing stride
  std::unordered_map<TxnId, CommitCtx> commits_;
  std::unordered_map<TxnId, EarlyCtx> early_;
  /// Txns whose decisions fanned out from a remote coordinator and whose
  /// runs have not closed yet (RemoteCoordinated).
  std::unordered_set<TxnId> remote_decided_;
};

/// Group two-phase locking (paper §3), the only g-2PL engine: the server
/// collects requests into forward lists; data items migrate client to
/// client along the list, fusing each lock release with the next grant;
/// deadlocks are avoided by keeping the transaction precedence graph
/// acyclic; MR1W lets the writer following a read group run concurrently
/// with its readers. `num_servers == 1` is the paper's single-server model.
///
/// Across shards there is one WindowManager per server, all sharing a
/// single ShardCoordinator, so deadlock avoidance and forward-list
/// reordering consult one global precedence graph — the same-pair-same-order
/// property holds across shards. Client-side obligation tracking is
/// shard-agnostic (an *obligation* is one occupied slot on a dispatched
/// forward list: receive the data, process it if the transaction is alive,
/// and forward it downstream at commit — or pass it through unchanged after
/// an abort); only the request/return endpoints differ per item.
class ShardedG2plEngine : public ShardedEngineBase {
 public:
  explicit ShardedG2plEngine(const SimConfig& config);

  const core::WindowManager& window_manager(int32_t shard) const {
    return *wms_[static_cast<size_t>(shard)];
  }
  const core::ShardCoordinator& coordinator() const { return *coordinator_; }

 protected:
  void SendRequest(TxnRun& run) override;
  void DoCommit(TxnRun& run) override;
  void OnClientAborted(TxnRun& run) override;
  void FillProtocolMetrics(RunResult* result) override;
  bool ShardVote(int32_t shard, TxnId txn, bool speculative) override;
  void OnCommitDecision(int32_t shard, TxnId txn) override;

 private:
  /// Transaction state that outlives the client's TxnRun: a finished
  /// transaction still occupies forward-list slots until every one of them
  /// has been forwarded (only then is it *drained*: it leaves the
  /// precedence graph, and its state is erased).
  struct TxnState {
    int32_t client_index = 0;
    bool finished = false;
    bool committed = false;
    int32_t slots_outstanding = 0;
    std::vector<ItemId> slot_items;
  };

  struct Obligation {
    std::shared_ptr<const core::ForwardList> fl;
    int32_t entry = 0;
    int32_t member = 0;
    bool is_writer = false;
    bool data_arrived = false;
    Version version = -1;
    int32_t releases_needed = 0;
    int32_t releases_received = 0;
    bool granted = false;
    bool forwarded = false;
  };

  struct ObKey {
    TxnId txn;
    ItemId item;
    bool operator==(const ObKey& other) const {
      return txn == other.txn && item == other.item;
    }
  };
  struct ObKeyHash {
    size_t operator()(const ObKey& key) const {
      return std::hash<int64_t>()(key.txn * 1000003 + key.item);
    }
  };

  void WmDispatch(int32_t shard, ItemId item, Version version,
                  std::shared_ptr<const core::ForwardList> fl);
  void WmAbort(int32_t shard, TxnId txn, SiteId client_site);
  void WmExpand(int32_t shard, ItemId item, Version version,
                std::shared_ptr<const core::ForwardList> fl, TxnId txn,
                SiteId client_site, int32_t member_index);

  void DeliverToEntry(SiteId from_site, ItemId item, Version version,
                      std::shared_ptr<const core::ForwardList> fl,
                      int32_t entry_index);
  void OnData(TxnId txn, ItemId item, Version version,
              std::shared_ptr<const core::ForwardList> fl,
              int32_t entry_index, int32_t member_index,
              int32_t early_releases);
  void OnReaderRelease(TxnId writer_txn, ItemId item, Version version,
                       std::shared_ptr<const core::ForwardList> fl,
                       int32_t writer_entry_index);
  void MaybeGrant(TxnId txn, ItemId item, Obligation& ob);
  void TryForward(TxnId txn, ItemId item);
  void CheckDrain(TxnId txn);
  TxnState& EnsureTxn(TxnId txn, int32_t client_index);

  std::unique_ptr<core::ShardCoordinator> coordinator_;
  std::vector<std::unique_ptr<core::WindowManager>> wms_;
  std::unordered_map<TxnId, TxnState> txns_;
  std::unordered_map<ObKey, Obligation, ObKeyHash> obligations_;
  std::unordered_set<TxnId> drained_;
};

// (s-2PL is cc::LockCcEngine with the detection policy — the generic lock
// engine in cc/lock_engine.h — so the no-wait / wait-die / ordered variants
// share its sharding and 2PC machinery.)

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_SHARDED_H_
