#ifndef GTPL_CC_LOCK_ENGINE_H_
#define GTPL_CC_LOCK_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "cc/policy.h"
#include "db/lock_table.h"
#include "lease/lease_cache.h"
#include "lease/lease_table.h"
#include "protocols/engine.h"

namespace gtpl::cc {

/// Compile-time-ish knobs distinguishing lock-engine variants beyond the
/// conflict policy.
struct LockEngineTraits {
  /// Participant shards install their updates and release their locks when
  /// the prepare arrives (yes vote) instead of waiting for the commit
  /// release message — the ordered-release fast path (Brook-2PL spirit).
  /// Sound because a yes vote is a commit promise in this model: abort
  /// decisions only ever target transactions with an outstanding blocked
  /// request, and a transaction at its commit point has none (DESIGN.md
  /// §12). Saves one WAN round of lock-hold time per cross-server commit.
  bool release_at_prepare = false;
  /// Clients cache committed data across transactions (c-2PL): a grant
  /// whose item the requester already caches at the current version
  /// travels as a control-only "grant(validate)" instead of "grant+data".
  /// Every lock is still taken per transaction, so this saves payload
  /// bytes, never rounds.
  bool cache_data = false;
};

/// Generic lock-based engine: FIFO strict-2PL lock tables (one per shard),
/// the base's cross-server commit paths (EngineBase), and a pluggable
/// ConflictPolicy deciding what happens when a request blocks. The message
/// sequences are ported verbatim from the pre-refactor sharded s-2PL engine
/// — with MakeDetectPolicy this class *is* that engine, bit for bit (the
/// legacy golden tables pin this) — so every
/// policy inherits sharding, the link model, span accounting, and the
/// invariant layer for free.
///
/// With SimConfig::lease.mode == kSticky (DESIGN.md §14) the per-txn lock
/// tables are replaced by a site-granular LeaseTable: a grant becomes a
/// lease that outlives the transaction, repeat acquisitions at the holder
/// site are served from the client's LeaseCache with zero flights
/// (lease_hits), and conflicting requests enqueue behind callback
/// revocation. Transaction-level mutual exclusion within a site is the
/// MPL-1 pin; across sites it is the lease itself, so strict 2PL per
/// transaction is preserved. --lease=none leaves every message of the
/// legacy engine untouched (the lease equivalence battery pins this).
class LockCcEngine : public proto::EngineBase, public PolicyHost {
 public:
  LockCcEngine(const proto::SimConfig& config,
               std::unique_ptr<ConflictPolicy> policy,
               LockEngineTraits traits = {});

  // PolicyHost:
  void AbortTxn(TxnId victim) override;
  ItemId MaxHeldItem(TxnId txn) const override;
  bool Woundable(TxnId txn) override;

 protected:
  void SendRequest(TxnRun& run) override;
  void DoCommit(TxnRun& run) override;
  void OnClientAborted(TxnRun& run) override;
  void FillProtocolMetrics(proto::RunResult* result) override;
  void RegisterMetrics(obs::MetricsRegistry* metrics) override;
  bool ShardVote(int32_t shard, TxnId txn, bool speculative) override;
  void OnCommitDecision(int32_t shard, TxnId txn) override;

 private:
  struct Update {
    ItemId item;
    Version version;
  };

  /// A lease release waiting for the holder's last committed install to
  /// reach the server (the version fence; see DESIGN.md §14 ordering
  /// argument) before it takes effect.
  struct FencedRelease {
    SiteId site;
    Version fence;
  };

  void ServerOnRequest(int32_t shard, TxnId txn, SiteId client_site,
                       ItemId item, LockMode mode);
  void ServerOnRelease(int32_t shard, TxnId txn, std::vector<Update> updates);
  void SendGrant(int32_t shard, TxnId txn, ItemId item);
  /// Drops `txn`'s locks on `shard` and grants the waiters they unblock.
  void ReleaseLocks(int32_t shard, TxnId txn);
  /// Install + release on `shard` ahead of the client's release message:
  /// at prepare time (release_at_prepare) or at decision arrival (kCoord).
  void ReleaseShardEarly(int32_t shard, TxnRun& run);

  // --- sticky-lease machinery (inert under --lease=none) ---------------
  /// Server admission for a request that missed the client's lease cache.
  void LeaseServerOnRequest(int32_t shard, TxnId txn, SiteId client_site,
                            ItemId item, LockMode mode);
  /// Ships "grant+data" and installs the lease into the client's cache on
  /// arrival. `revoke_wait` is how long the request sat queued behind
  /// revocations (0 for immediate grants); it rides TxnRun and lands in
  /// the lease_revoke_wait sub-span.
  void SendLeaseGrant(int32_t shard, TxnId txn, ItemId item, LockMode mode,
                      SimTime revoke_wait);
  /// Sends revoke callbacks to `targets` on behalf of queue-head txn
  /// `collector`.
  void SendLeaseRevokes(int32_t shard, ItemId item,
                        const std::vector<SiteId>& targets, TxnId collector);
  /// Revoke callback reached holder `site`: release now if unpinned,
  /// else defer to transaction end and post the collector->pinner edge.
  void ClientOnLeaseRevoke(int32_t shard, SiteId site, ItemId item,
                           TxnId collector);
  /// Client-side voluntary or revoke-driven release; `fence` is the
  /// latest version this site committed to the item (0 if unknown).
  void SendLeaseRelease(SiteId site, ItemId item, Version fence);
  void ServerOnLeaseRelease(int32_t shard, SiteId site, ItemId item,
                            Version fence);
  /// Applies a release whose fence is satisfied and promotes the queue.
  void ApplyLeaseRelease(int32_t shard, SiteId site, ItemId item);
  /// Grants the item's queue prefix and sends follow-up revokes.
  void PromoteLeases(int32_t shard, ItemId item);
  /// An install for `item` landed on `shard`: flush fenced releases that
  /// were waiting for it.
  void ServerInstalledItem(int32_t shard, ItemId item);
  /// Blockers of a lease-blocked request: queued-ahead transactions plus
  /// the transactions pinning the item at conflicting holder sites and at
  /// every site with a revoke outstanding (the coherence rule blocks all
  /// grants until those release).
  std::vector<TxnId> LeaseBlockers(TxnId txn, SiteId site, ItemId item,
                                   LockMode mode) const;
  /// Re-posts fresh blocker sets for `item`'s still-queued waiters after
  /// its lease state changed (grant, release, or an aborted waiter left
  /// the queue) — block-time wait edges go stale otherwise and deadlock
  /// cycles through the new state are never seen.
  void RefreshLeaseWaits(int32_t shard, ItemId item);
  /// Unpins the finished txn's leases and flushes deferred releases.
  void FlushLeasePins(TxnRun& run);
  void EmitLeaseEvent(obs::EventKind kind, int32_t shard, TxnId txn,
                      SiteId site, ItemId item, bool exclusive);

  std::vector<std::unique_ptr<db::LockTable>> lock_tables_;
  std::unique_ptr<ConflictPolicy> policy_;
  LockEngineTraits traits_;
  // Release messages still in flight per committing txn; the policy learns
  // the txn finished when the count reaches zero.
  std::unordered_map<TxnId, int32_t> pending_releases_;
  // Shard whose blocked request the policy is currently resolving; abort
  // decisions are attributed to its server site.
  int32_t current_shard_ = 0;
  // Per-client committed versions (cache_data only; empty otherwise).
  std::vector<std::unordered_map<ItemId, Version>> data_caches_;

  // Sticky-lease state (empty/unused under --lease=none).
  bool sticky_ = false;
  lease::LeaseTable lease_table_;
  std::vector<lease::LeaseCache> lease_caches_;  // one per client
  std::unordered_map<ItemId, std::vector<FencedRelease>> fenced_releases_;
  int64_t lease_hits_ = 0;
  int64_t lease_revokes_ = 0;
  int64_t lease_releases_ = 0;
};

}  // namespace gtpl::cc

#endif  // GTPL_CC_LOCK_ENGINE_H_
