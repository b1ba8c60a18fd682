#include "cc/lock_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace gtpl::cc {

using proto::RunResult;
using proto::SimConfig;

LockCcEngine::LockCcEngine(const SimConfig& config,
                           std::unique_ptr<ConflictPolicy> policy,
                           LockEngineTraits traits)
    : EngineBase(config),
      policy_(std::move(policy)),
      traits_(traits),
      sticky_(config.lease.mode == lease::LeaseMode::kSticky) {
  if (traits_.cache_data) {
    data_caches_.resize(static_cast<size_t>(config.num_clients));
  }
  lock_tables_.reserve(static_cast<size_t>(config.num_servers));
  for (int32_t shard = 0; shard < config.num_servers; ++shard) {
    lock_tables_.push_back(
        std::make_unique<db::LockTable>(config.workload.num_items));
  }
  if (sticky_) {
    lease_caches_.reserve(static_cast<size_t>(config.num_clients));
    for (int32_t i = 0; i < config.num_clients; ++i) {
      lease_caches_.emplace_back(config.lease.ttl, config.lease.max_held);
    }
  }
}

void LockCcEngine::SendRequest(TxnRun& run) {
  const TxnId txn = run.id;
  const SiteId site = run.site();
  const workload::Operation op = run.op();
  if (sticky_) {
    // Lease hit: a sufficient unexpired lease serves the acquisition with
    // zero network flights; the cached version is coherent because any
    // conflicting remote access would have revoked the lease first.
    lease::LeaseCache& cache =
        lease_caches_[static_cast<size_t>(run.client_index)];
    Version version = 0;
    if (cache.Hit(op.item, op.mode, simulator().Now(), &version)) {
      ++lease_hits_;
      cache.Pin(op.item, txn);
      OpGranted(run, version);
      return;
    }
  }
  const int32_t shard = ShardOf(op.item);
  network().Send(site, ServerSiteOf(shard), "lock-request",
                 [this, shard, txn, site, op] {
                   ServerOnRequest(shard, txn, site, op.item, op.mode);
                 });
}

void LockCcEngine::ServerOnRequest(int32_t shard, TxnId txn,
                                   SiteId client_site, ItemId item,
                                   LockMode mode) {
  NoteRequestAtServer(txn, item, mode, shard);
  if (Dead(txn)) return;  // stale request of a victim
  if (sticky_) {
    LeaseServerOnRequest(shard, txn, client_site, item, mode);
    return;
  }
  db::LockTable& table = *lock_tables_[static_cast<size_t>(shard)];
  const db::LockResult outcome = table.Request(txn, item, mode);
  if (outcome == db::LockResult::kGranted) {
    SendGrant(shard, txn, item);
    return;
  }
  // Blocked: the policy resolves the conflict on the *global* coordination
  // plane (shared across shards, like the old waits-for graph), so
  // cross-shard conflicts are handled exactly like local ones. The blocker
  // set includes conflicting holders and conflicting earlier waiters.
  current_shard_ = shard;
  policy_->OnBlocked(txn, item, table.Blockers(txn, item), *this);
}

void LockCcEngine::SendGrant(int32_t shard, TxnId txn, ItemId item) {
  TxnRun* run = FindRun(txn);
  if (run == nullptr) return;  // finished in the meantime (nothing to ship)
  const Version version = store().VersionOf(item);
  bool cached = false;
  if (traits_.cache_data) {
    const auto& cache = data_caches_[static_cast<size_t>(run->client_index)];
    auto it = cache.find(item);
    cached = it != cache.end() && it->second == version;
  }
  network().Send(
      ServerSiteOf(shard), run->site(),
      cached ? "grant(validate)" : "grant+data",
      [this, txn, item, version] {
        TxnRun* target = FindRun(txn);
        if (target == nullptr || target->finished || target->doomed) {
          return;
        }
        GTPL_CHECK_EQ(target->op().item, item);
        OpGranted(*target, version);
      },
      cached ? net::kControlPayload
             : net::kControlPayload + net::kDataPayload);
}

void LockCcEngine::ReleaseLocks(int32_t shard, TxnId txn) {
  lock_tables_[static_cast<size_t>(shard)]->ReleaseAll(
      txn, [this, shard](TxnId granted, ItemId item, LockMode) {
        policy_->OnWaiterGranted(granted);
        SendGrant(shard, granted, item);
      });
}

void LockCcEngine::AbortTxn(TxnId victim) {
  TxnRun* run = FindRun(victim);
  GTPL_CHECK(run != nullptr && !run->finished && !run->doomed)
      << "policy victim " << victim << " is not a live txn";
  policy_->OnTxnFinished(victim);
  // The victim's locks are dropped on every shard at decision time (the
  // instantaneous coordination plane; see the determinism contract).
  if (sticky_) {
    // The victim leaves every lease queue; its *pins* are released by the
    // client on abort-notice arrival (FlushLeasePins), since the leases
    // themselves are site-owned and survive the transaction.
    for (ItemId item : lease_table_.RemoveTxn(victim)) {
      PromoteLeases(ShardOf(item), item);
    }
  } else {
    for (int32_t shard = 0; shard < num_servers(); ++shard) {
      ReleaseLocks(shard, victim);
    }
  }
  ServerAbortDecision(victim, ServerSiteOf(current_shard_));
}

ItemId LockCcEngine::MaxHeldItem(TxnId txn) const {
  ItemId held = kInvalidItem;
  if (sticky_) {
    // The txn "holds" exactly the leases it has pinned at its own site.
    for (const lease::LeaseCache& cache : lease_caches_) {
      for (ItemId item : cache.PinnedItems(txn)) {
        held = std::max(held, item);
      }
    }
    return held;
  }
  for (const auto& table : lock_tables_) {
    for (ItemId item : table->HeldItems(txn)) {
      held = std::max(held, item);
    }
  }
  return held;
}

bool LockCcEngine::Woundable(TxnId txn) {
  TxnRun* run = FindRun(txn);
  return run != nullptr && !run->finished && !run->doomed && !run->committing;
}

void LockCcEngine::DoCommit(TxnRun& run) {
  // One release message per participant shard, carrying that shard's
  // updates (these releases are the effective phase two of a cross-server
  // commit; single-shard transactions send exactly the one message the
  // single-server engine sends). Under sticky leases only written shards
  // get one — a read lease simply stays, and the lease carries no data, so
  // the server copy stays authoritative — and the client's lease cache
  // takes the new versions so later local transactions read this site's
  // own writes. Shards that already released ahead of this message
  // (run.released_shards) have nothing left to do.
  const size_t shards = static_cast<size_t>(num_servers());
  std::vector<std::vector<db::ItemVersion>> updates_by(shards);
  std::vector<bool> release(shards, false);
  const auto client = static_cast<size_t>(run.client_index);
  for (const proto::OpRecord& record : run.records) {
    const size_t shard = static_cast<size_t>(ShardOf(record.item));
    const bool write = record.mode == LockMode::kExclusive;
    if (write) {
      updates_by[shard].push_back({record.item, record.version_written});
      if (sticky_) {
        lease_caches_[client].UpdateVersion(record.item,
                                            record.version_written);
      }
    }
    release[shard] = release[shard] || write || !sticky_;
    if (traits_.cache_data) {
      data_caches_[client][record.item] =
          write ? record.version_written : record.version_read;
    }
  }
  for (int32_t shard : run.released_shards) {
    release[static_cast<size_t>(shard)] = false;
  }
  const TxnId txn = run.id;
  const auto participants =
      static_cast<int32_t>(std::count(release.begin(), release.end(), true));
  if (participants == 0) {
    // Every shard released early; the txn already left the server plane,
    // and its installs are all permanent — client log can truncate.
    policy_->OnTxnFinished(txn);
    MaybeGcClientLogs();
  } else {
    pending_releases_[txn] = participants;
    for (int32_t shard = 0; shard < num_servers(); ++shard) {
      if (!release[static_cast<size_t>(shard)]) continue;
      std::vector<db::ItemVersion>& updates =
          updates_by[static_cast<size_t>(shard)];
      const uint64_t payload =
          net::kControlPayload + net::kDataPayload * updates.size();
      network().Send(
          run.site(), ServerSiteOf(shard), "release",
          [this, shard, txn, updates = std::move(updates)] {
            ServerOnRelease(shard, txn, updates);
          },
          payload);
    }
  }
  // Deferred revoke releases leave only now, *after* the installs: same-tick
  // FIFO delivery plus the server-side version fence guarantee the next
  // holder is granted the committed version, never a stale one.
  if (sticky_) FlushLeasePins(run);
}

void LockCcEngine::ServerOnRelease(int32_t shard, TxnId txn,
                                   std::vector<db::ItemVersion> updates) {
  proto::EmitRelease(txn, shard, ServerSiteOf(shard),
                     static_cast<int64_t>(updates.size()), "", tracer());
  for (const db::ItemVersion& update : updates) {
    InstallAtServer(update);
  }
  MaybeGcClientLogs();
  // The transaction leaves the policy's books only once its last shard
  // released (it still holds locks elsewhere until then).
  auto pending = pending_releases_.find(txn);
  GTPL_CHECK(pending != pending_releases_.end());
  if (--pending->second == 0) {
    pending_releases_.erase(pending);
    policy_->OnTxnFinished(txn);
  }
  if (sticky_) {
    // No lock table to promote; instead the fresh installs may satisfy
    // version fences of lease releases parked behind them.
    for (const db::ItemVersion& update : updates) {
      ServerInstalledItem(shard, update.item);
    }
    return;
  }
  ReleaseLocks(shard, txn);
}

void LockCcEngine::ReleaseShardEarly(int32_t shard, TxnRun& run) {
  const TxnId txn = run.id;
  proto::EmitRelease(txn, shard, ServerSiteOf(shard), 0, "early-release",
                     tracer());
  for (const proto::OpRecord& record : run.records) {
    if (ShardOf(record.item) != shard) continue;
    if (record.mode != LockMode::kExclusive) continue;
    InstallAtServer({record.item, record.version_written});
    if (sticky_) ServerInstalledItem(shard, record.item);
  }
  run.released_shards.push_back(shard);
  if (sticky_) return;  // the leases outlive the txn; nothing to promote
  ReleaseLocks(shard, txn);
}

void LockCcEngine::OnClientAborted(TxnRun& run) {
  // Server state was already cleaned on every shard at decision time; the
  // client still has to drop its pins so deferred revokes can drain, and
  // its locally updated copies, which are dirty.
  if (traits_.cache_data) {
    auto& cache = data_caches_[static_cast<size_t>(run.client_index)];
    for (const proto::OpRecord& record : run.records) {
      if (record.mode == LockMode::kExclusive) cache.erase(record.item);
    }
  }
  if (sticky_) FlushLeasePins(run);
}

bool LockCcEngine::ShardVote(int32_t shard, TxnId txn, bool speculative) {
  if (Dead(txn)) return false;  // safety net
  // A non-speculative yes vote is a commit promise (abort decisions only
  // target blocked requesters, and this txn is at its commit point): the
  // ordered-release variant cashes it in immediately. A speculative vote
  // (kEarly) only means "not aborted so far" — no release on its strength.
  if (traits_.release_at_prepare && !speculative) {
    TxnRun* run = FindRun(txn);
    GTPL_CHECK(run != nullptr) << "prepare for a txn without a run";
    ReleaseShardEarly(shard, *run);
  }
  return true;
}

void LockCcEngine::OnCommitDecision(int32_t shard, TxnId txn) {
  // Client-coordinated commits: the per-shard release messages (DoCommit)
  // carry the actual releases and updates; the decision only logs the
  // outcome. A remote coordinator's decision (kCoord), though, reaches the
  // shard ahead of the client's ack-delayed DoCommit — cash it in now for
  // the lock-hold reduction, unless the shard already released at prepare
  // time or the client's commit beat this message.
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished || !run->decided_remotely) return;
  const std::vector<int32_t>& released = run->released_shards;
  if (std::find(released.begin(), released.end(), shard) != released.end()) {
    return;
  }
  ReleaseShardEarly(shard, *run);
}

void LockCcEngine::FillProtocolMetrics(RunResult* result) {
  result->lease_hits = lease_hits_;
  result->lease_revokes = lease_revokes_;
  result->lease_releases = lease_releases_;
}

void LockCcEngine::RegisterMetrics(obs::MetricsRegistry* metrics) {
  EngineBase::RegisterMetrics(metrics);
  // Per-shard lock-table occupancy; under sticky leases the lock tables sit
  // idle and the lease table/caches carry the contention state instead.
  for (int32_t s = 0; s < static_cast<int32_t>(lock_tables_.size()); ++s) {
    db::LockTable* table = lock_tables_[static_cast<size_t>(s)].get();
    metrics->Register("locks_held", s, [table] { return table->TotalHeld(); });
    metrics->Register("lock_waiters", s,
                      [table] { return table->TotalWaiters(); });
  }
  if (sticky_) {
    metrics->Register("leases_held", -1,
                      [this] { return lease_table_.TotalLeases(); });
    metrics->Register("lease_waiters", -1,
                      [this] { return lease_table_.TotalWaiters(); });
    metrics->Register("lease_cached", -1, [this] {
      int64_t cached = 0;
      for (const lease::LeaseCache& cache : lease_caches_) {
        cached += cache.Size();
      }
      return cached;
    });
  }
}

// --- sticky-lease machinery (DESIGN.md §14) ------------------------------

void LockCcEngine::LeaseServerOnRequest(int32_t shard, TxnId txn,
                                        SiteId client_site, ItemId item,
                                        LockMode mode) {
  lease::AdmitOutcome outcome =
      lease_table_.Admit(txn, client_site, item, mode, simulator().Now());
  if (outcome.granted) {
    EmitLeaseEvent(obs::EventKind::kLeaseGrant, shard, txn, client_site,
                   item, mode == LockMode::kExclusive);
    SendLeaseGrant(shard, txn, item, mode, /*revoke_wait=*/0);
    return;
  }
  // Blocked behind holders and/or earlier waiters: fire the callback
  // revocations first (a marked revoke must always be sent, even if the
  // policy aborts the requester right after — the holders' replies are what
  // clears the revoke-outstanding marks), then let the policy resolve the
  // conflict exactly as it would for a lock-table block.
  SendLeaseRevokes(shard, item, outcome.revoke_sites, outcome.collector);
  if (Dead(txn)) return;  // wounded by its own revoke
  current_shard_ = shard;
  policy_->OnBlocked(txn, item, LeaseBlockers(txn, client_site, item, mode),
                     *this);
}

void LockCcEngine::SendLeaseGrant(int32_t shard, TxnId txn, ItemId item,
                                  LockMode mode, SimTime revoke_wait) {
  TxnRun* run = FindRun(txn);
  if (run == nullptr) return;  // finished in the meantime (nothing to ship)
  run->pending_revoke_wait = revoke_wait;
  const Version version = store().VersionOf(item);
  network().Send(
      ServerSiteOf(shard), run->site(), "grant+data",
      [this, txn, item, mode, version] {
        TxnRun* target = FindRun(txn);
        if (target == nullptr || target->finished || target->doomed) {
          return;
        }
        GTPL_CHECK_EQ(target->op().item, item);
        lease::LeaseCache& cache =
            lease_caches_[static_cast<size_t>(target->client_index)];
        for (ItemId evicted : cache.Install(item, mode, version,
                                            simulator().Now())) {
          const Version fence = cache.VersionOf(evicted);
          cache.Drop(evicted);
          SendLeaseRelease(target->site(), evicted, fence);
        }
        cache.Pin(item, txn);
        OpGranted(*target, version);
      },
      net::kControlPayload + net::kDataPayload);
}

void LockCcEngine::SendLeaseRevokes(int32_t shard, ItemId item,
                                    const std::vector<SiteId>& targets,
                                    TxnId collector) {
  for (SiteId target : targets) {
    ++lease_revokes_;
    EmitLeaseEvent(obs::EventKind::kLeaseRevoke, shard, collector, target,
                   item, /*exclusive=*/false);
    network().Send(ServerSiteOf(shard), target, "lease-revoke",
                   [this, shard, target, item, collector] {
                     ClientOnLeaseRevoke(shard, target, item, collector);
                   });
  }
}

void LockCcEngine::ClientOnLeaseRevoke(int32_t shard, SiteId site,
                                       ItemId item, TxnId collector) {
  lease::LeaseCache& cache = lease_caches_[static_cast<size_t>(site - 1)];
  if (!cache.Has(item)) {
    // Already evicted voluntarily; the release and this revoke crossed in
    // flight. Reply anyway so the server clears its revoke-outstanding
    // mark (Release at the server is idempotent).
    SendLeaseRelease(site, item, /*fence=*/0);
    return;
  }
  if (cache.MarkRevoked(item)) {
    // Unpinned: release immediately, fenced by the newest version this
    // site committed to the item.
    const Version fence = cache.VersionOf(item);
    cache.Drop(item);
    SendLeaseRelease(site, item, fence);
    return;
  }
  // Pinned: the release is deferred until the pinning transaction drains
  // (FlushLeasePins). The pin is a wait edge that did not exist when the
  // waiters blocked (the grant that set it may have still been in flight),
  // so re-post *every* current waiter with fresh blockers — not just the
  // collector stamped into the revoke, which may have aborted and been
  // replaced at the head of the queue since the revoke was sent.
  (void)collector;
  RefreshLeaseWaits(shard, item);
}

void LockCcEngine::SendLeaseRelease(SiteId site, ItemId item, Version fence) {
  const int32_t shard = ShardOf(item);
  network().Send(site, ServerSiteOf(shard), "lease-release",
                 [this, shard, site, item, fence] {
                   ServerOnLeaseRelease(shard, site, item, fence);
                 });
}

void LockCcEngine::ServerOnLeaseRelease(int32_t shard, SiteId site,
                                        ItemId item, Version fence) {
  // Version fence (the §14 ordering argument): a write-lease holder's
  // release must not take effect before its last committed install reached
  // this server — link jitter can reorder the two messages, and granting
  // the next holder off the pre-install store copy would hand out a stale
  // version. Park the release until the install lands.
  if (store().VersionOf(item) < fence) {
    fenced_releases_[item].push_back(FencedRelease{site, fence});
    return;
  }
  ApplyLeaseRelease(shard, site, item);
}

void LockCcEngine::ApplyLeaseRelease(int32_t shard, SiteId site, ItemId item) {
  if (!lease_table_.Release(site, item)) return;  // crossed with an earlier one
  ++lease_releases_;
  EmitLeaseEvent(obs::EventKind::kLeaseRelease, shard, kInvalidTxn, site,
                 item, /*exclusive=*/false);
  PromoteLeases(shard, item);
}

void LockCcEngine::PromoteLeases(int32_t shard, ItemId item) {
  lease::PromoteOutcome out = lease_table_.Promote(item, simulator().Now());
  for (const lease::LeaseWaiter& waiter : out.granted) {
    policy_->OnWaiterGranted(waiter.txn);
    EmitLeaseEvent(obs::EventKind::kLeaseGrant, shard, waiter.txn,
                   waiter.site, item, waiter.mode == LockMode::kExclusive);
    SendLeaseGrant(shard, waiter.txn, item, waiter.mode,
                   simulator().Now() - waiter.enqueued);
  }
  SendLeaseRevokes(shard, item, out.revoke_sites, out.collector);
  RefreshLeaseWaits(shard, item);
}

void LockCcEngine::ServerInstalledItem(int32_t shard, ItemId item) {
  auto it = fenced_releases_.find(item);
  if (it == fenced_releases_.end()) return;
  std::vector<FencedRelease> parked = std::move(it->second);
  fenced_releases_.erase(it);
  std::vector<FencedRelease> still_parked;
  for (const FencedRelease& release : parked) {
    if (store().VersionOf(item) < release.fence) {
      still_parked.push_back(release);
    } else {
      ApplyLeaseRelease(shard, release.site, item);
    }
  }
  if (!still_parked.empty()) {
    fenced_releases_[item] = std::move(still_parked);
  }
}

std::vector<TxnId> LockCcEngine::LeaseBlockers(TxnId txn, SiteId site,
                                               ItemId item,
                                               LockMode mode) const {
  // Earlier waiters on the item's queue, plus whoever is *pinning* the
  // lease at each site that must leave before any grant can happen: the
  // mode-conflicting holders, and every site with a revoke outstanding —
  // the coherence rule blocks all grants until those release, so even a
  // mode-compatible waiter waits on their pinners. An idle holder blocks
  // no transaction — its lease releases as soon as the revoke lands.
  std::vector<TxnId> blockers = lease_table_.QueuedAhead(txn, item);
  std::vector<SiteId> gating =
      lease_table_.ConflictingHolders(site, item, mode);
  for (SiteId revoked : lease_table_.RevokedSites(item)) {
    if (revoked != site) gating.push_back(revoked);
  }
  std::sort(gating.begin(), gating.end());
  gating.erase(std::unique(gating.begin(), gating.end()), gating.end());
  for (SiteId holder : gating) {
    const TxnId pin =
        lease_caches_[static_cast<size_t>(holder - 1)].PinOwner(item);
    if (pin != kInvalidTxn && pin != txn && !Dead(pin)) {
      blockers.push_back(pin);
    }
  }
  return blockers;
}

void LockCcEngine::RefreshLeaseWaits(int32_t shard, ItemId item) {
  // Wait edges are posted to the policy when a request blocks, but the
  // blocker sets go stale as the item's lease state evolves: a queue head
  // aborts, a waiter is granted and its site becomes the holder the rest
  // now wait on. Re-post every still-queued waiter with fresh blockers so
  // cycle detection (and wound/die ordering) always sees the live graph;
  // duplicated edges are harmless.
  for (const lease::LeaseWaiter& waiter : lease_table_.Waiters(item)) {
    // A policy abort during this loop may doom a later waiter (its queue
    // entry is removed inside AbortTxn); skip anything no longer live.
    if (Dead(waiter.txn)) continue;
    current_shard_ = shard;
    policy_->OnBlocked(waiter.txn, item,
                       LeaseBlockers(waiter.txn, waiter.site, item,
                                     waiter.mode),
                       *this);
  }
}

void LockCcEngine::FlushLeasePins(TxnRun& run) {
  lease::LeaseCache& cache =
      lease_caches_[static_cast<size_t>(run.client_index)];
  for (ItemId item : cache.UnpinAll(run.id)) {
    const Version fence = cache.VersionOf(item);
    cache.Drop(item);
    SendLeaseRelease(run.site(), item, fence);
  }
}

void LockCcEngine::EmitLeaseEvent(obs::EventKind kind, int32_t shard,
                                  TxnId txn, SiteId site, ItemId item,
                                  bool exclusive) {
  if (!tracer().enabled()) return;
  obs::TraceEvent event;
  event.kind = kind;
  event.txn = txn;
  event.site = site;
  event.item = item;
  event.shard = shard;
  event.mode = exclusive ? 1 : 0;
  event.flag = exclusive;
  tracer().Emit(std::move(event));
}

}  // namespace gtpl::cc
