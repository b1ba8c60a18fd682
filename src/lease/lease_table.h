#ifndef GTPL_LEASE_LEASE_TABLE_H_
#define GTPL_LEASE_LEASE_TABLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/types.h"

namespace gtpl::lease {

/// One queued lease request: the transaction that needs the item, the site
/// it runs at, the mode it needs, and when it entered the queue (the start
/// of its lease_revoke_wait sub-span).
struct LeaseWaiter {
  TxnId txn = kInvalidTxn;
  SiteId site = kServerSite;
  LockMode mode = LockMode::kShared;
  SimTime enqueued = 0;
};

/// Outcome of admitting one lease request.
struct AdmitOutcome {
  bool granted = false;
  /// Holder sites that must be sent a revoke callback (newly marked
  /// revoke-outstanding; the engine owns the message send).
  std::vector<SiteId> revoke_sites;
  /// Transaction at the head of the wait queue, on whose behalf the
  /// revokes were issued (the "collector" carried in the revoke message so
  /// the client can post a waits-for edge against its pinned transaction).
  TxnId collector = kInvalidTxn;
};

/// Outcome of promoting an item's wait queue after a release.
struct PromoteOutcome {
  std::vector<LeaseWaiter> granted;
  std::vector<SiteId> revoke_sites;  // for the new head, if still blocked
  TxnId collector = kInvalidTxn;     // head txn the revokes are for
};

/// Server-side sticky-lease state machine (DESIGN.md §14), the YFS
/// lock_server_cache analogue. Leases are *site*-granular and outlive
/// transactions: a read lease may be shared by many sites, a write lease is
/// exclusive to one. Requests that cannot be granted enqueue FIFO; the
/// table reports which holder sites need a revoke callback, and no grant is
/// issued while any revoke on the item is outstanding (the lease-coherence
/// invariant checked by the protocol-event layer).
///
/// The table is pure state: the owning engine sends revoke/grant messages,
/// stamps revoke-wait spans, and runs the conflict policy on blockers.
class LeaseTable {
 public:
  /// Admits a request for `mode` on `item` by `txn` at `site`. If the site
  /// already holds a sufficient lease (a race with client-side expiry or an
  /// in-flight release), the grant refreshes it. At most one request per
  /// site may be outstanding (MPL 1).
  AdmitOutcome Admit(TxnId txn, SiteId site, ItemId item, LockMode mode,
                     SimTime now);

  /// Processes a lease release from `site` (revoke reply or voluntary
  /// eviction). Idempotent: returns false if the site neither held the
  /// item nor had a revoke outstanding (a release/revoke crossing in
  /// flight). The caller should Promote(item) after a true return.
  bool Release(SiteId site, ItemId item);

  /// Grants the maximal compatible FIFO prefix of `item`'s queue (only
  /// when no revoke is outstanding) and, if the queue is still non-empty,
  /// issues revokes for the new head's conflicts.
  PromoteOutcome Promote(ItemId item, SimTime now);

  /// Removes `txn` from every wait queue (abort path). Returns the items
  /// it waited on, each of which the caller should Promote.
  std::vector<ItemId> RemoveTxn(TxnId txn);

  /// Holder sites whose lease conflicts with `mode` requested by `site`
  /// (excluding `site` itself), in deterministic (sorted) order.
  std::vector<SiteId> ConflictingHolders(SiteId site, ItemId item,
                                         LockMode mode) const;

  /// Transactions queued ahead of `txn` on `item`.
  std::vector<TxnId> QueuedAhead(TxnId txn, ItemId item) const;

  /// Sites with an outstanding revoke on `item`, sorted. Every waiter on
  /// the item waits for all of them (no grant while a revoke is out), so
  /// their pinning transactions belong in every waiter's blocker set even
  /// when the waiter's mode is compatible with the holders.
  std::vector<SiteId> RevokedSites(ItemId item) const;

  /// Snapshot of `item`'s wait queue, front first (for re-posting fresh
  /// blocker sets to the conflict policy after the lease state changes).
  std::vector<LeaseWaiter> Waiters(ItemId item) const;

  /// Total queued waiters across all items (for tests).
  int64_t TotalWaiters() const;

  /// Total held site leases across all items (write lease + read leases;
  /// a metrics-registry gauge).
  int64_t TotalLeases() const;

 private:
  struct ItemLease {
    SiteId writer = -1;           // site holding the write lease, or -1
    std::vector<SiteId> readers;  // sites holding read leases, sorted
    std::vector<SiteId> revokes;  // sites with an outstanding revoke, sorted
    std::deque<LeaseWaiter> queue;

    bool Idle() const {
      return writer < 0 && readers.empty() && revokes.empty() && queue.empty();
    }
  };

  /// True iff `mode` at `site` is compatible with the current holders of
  /// `entry` (holders at `site` itself never conflict; an upgrade succeeds
  /// only once other holders are gone).
  static bool CompatibleWithHolders(const ItemLease& entry, SiteId site,
                                    LockMode mode);

  /// Installs `site` as a holder in `mode` (upgrading a read lease in
  /// place if needed).
  static void AddHolder(ItemLease& entry, SiteId site, LockMode mode);

  /// Marks every holder conflicting with the queue head revoke-outstanding
  /// and appends the newly marked sites to `out`.
  static void IssueRevokesForHead(ItemLease& entry, std::vector<SiteId>* out);

  // std::map keeps iteration deterministic for debugging helpers.
  std::map<ItemId, ItemLease> items_;
};

}  // namespace gtpl::lease

#endif  // GTPL_LEASE_LEASE_TABLE_H_
