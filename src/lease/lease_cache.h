#ifndef GTPL_LEASE_LEASE_CACHE_H_
#define GTPL_LEASE_LEASE_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"

namespace gtpl::lease {

/// Client-side lease cache (DESIGN.md §14), the YFS lock_client_cache
/// analogue. Holds the leases granted to this site together with the
/// latest coherent version of each item, serves repeat lock acquisitions
/// locally (lease_hits), and tracks per-transaction pins so a revoke
/// callback arriving mid-transaction is deferred until the pinning
/// transaction drains.
///
/// Expiry is lazy: with a finite TTL an entry past its lifetime stops
/// serving hits (the next access re-fetches at the server, which still
/// lists this site as holder and refreshes the lease). Entries are only
/// removed by revocation or LRU eviction, so server and client holder
/// state never diverge silently.
class LeaseCache {
 public:
  LeaseCache(SimTime ttl, int32_t max_held);

  /// Serves `mode` on `item` from the cache at `now` if the lease is
  /// sufficient, unexpired, and not being revoked. On a hit, stores the
  /// cached version in `version` and refreshes the LRU stamp.
  bool Hit(ItemId item, LockMode mode, SimTime now, Version* version);

  /// Installs or refreshes a lease from a server grant. Returns the items
  /// evicted by the max_held LRU policy (unpinned, not revoke-pending);
  /// the caller sends a voluntary release for each.
  std::vector<ItemId> Install(ItemId item, LockMode mode, Version version,
                              SimTime now);

  /// Bumps the cached version after this site commits a write to `item`.
  void UpdateVersion(ItemId item, Version version);

  /// Marks `item` revoke-pending. Returns true if the item can be
  /// released right away (cached and not pinned); false if the release
  /// must wait for the pinning transaction (deferred) or the item is not
  /// cached at all (the caller replies with an idempotent release).
  bool MarkRevoked(ItemId item);

  /// Removes `item` (release sent, or revoke for an uncached item).
  void Drop(ItemId item);

  /// Pins `item` for `txn` (a granted operation); unpinned at txn end.
  void Pin(ItemId item, TxnId txn);

  /// Unpins every item pinned by `txn` and returns the revoke-pending ones
  /// whose deferred release is now due (the caller Drops and releases).
  std::vector<ItemId> UnpinAll(TxnId txn);

  /// Transaction currently pinning `item`, or kInvalidTxn.
  TxnId PinOwner(ItemId item) const;

  /// Items currently pinned by `txn`, ascending.
  std::vector<ItemId> PinnedItems(TxnId txn) const;

  bool Has(ItemId item) const;
  /// Cached version of `item`, or 0 when absent — the release fence: the
  /// newest version this site committed (or was granted) for the item.
  Version VersionOf(ItemId item) const;
  int64_t Size() const { return static_cast<int64_t>(entries_.size()); }

 private:
  struct Entry {
    LockMode mode = LockMode::kShared;
    Version version = 0;
    SimTime granted_at = 0;
    uint64_t lru = 0;
    TxnId pin = kInvalidTxn;
    bool revoke_pending = false;
  };

  bool Expired(const Entry& entry, SimTime now) const {
    return ttl_ > 0 && now - entry.granted_at > ttl_;
  }

  // std::map keeps eviction scans deterministic.
  std::map<ItemId, Entry> entries_;
  uint64_t lru_clock_ = 0;
  SimTime ttl_ = 0;
  int32_t max_held_ = 0;
};

}  // namespace gtpl::lease

#endif  // GTPL_LEASE_LEASE_CACHE_H_
