#include "lease/lease_cache.h"

#include <algorithm>

#include "common/check.h"

namespace gtpl::lease {

LeaseCache::LeaseCache(SimTime ttl, int32_t max_held)
    : ttl_(ttl), max_held_(max_held) {}

bool LeaseCache::Hit(ItemId item, LockMode mode, SimTime now,
                     Version* version) {
  auto it = entries_.find(item);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  if (entry.revoke_pending || Expired(entry, now)) return false;
  if (mode == LockMode::kExclusive && entry.mode != LockMode::kExclusive) {
    return false;  // upgrade needs a server round
  }
  entry.lru = ++lru_clock_;
  *version = entry.version;
  return true;
}

std::vector<ItemId> LeaseCache::Install(ItemId item, LockMode mode,
                                        Version version, SimTime now) {
  Entry& entry = entries_[item];
  // An upgrade grant keeps exclusive mode; a shared refresh never
  // downgrades a cached write lease.
  if (entry.mode != LockMode::kExclusive) entry.mode = mode;
  entry.version = version;
  entry.granted_at = now;
  entry.lru = ++lru_clock_;
  GTPL_CHECK(!entry.revoke_pending);  // server never grants mid-revoke
  std::vector<ItemId> evicted;
  if (max_held_ <= 0) return evicted;
  auto evictable = [this, item](const std::pair<const ItemId, Entry>& kv) {
    return kv.first != item && kv.second.pin == kInvalidTxn &&
           !kv.second.revoke_pending;
  };
  while (static_cast<int32_t>(entries_.size()) > max_held_) {
    auto victim = entries_.end();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt) {
      if (!evictable(*jt)) continue;
      if (victim == entries_.end() || jt->second.lru < victim->second.lru) {
        victim = jt;
      }
    }
    if (victim == entries_.end()) break;  // everything pinned or revoking
    evicted.push_back(victim->first);
    entries_.erase(victim);
  }
  return evicted;
}

void LeaseCache::UpdateVersion(ItemId item, Version version) {
  auto it = entries_.find(item);
  if (it != entries_.end()) it->second.version = version;
}

bool LeaseCache::MarkRevoked(ItemId item) {
  auto it = entries_.find(item);
  if (it == entries_.end()) return false;
  it->second.revoke_pending = true;
  return it->second.pin == kInvalidTxn;
}

void LeaseCache::Drop(ItemId item) { entries_.erase(item); }

void LeaseCache::Pin(ItemId item, TxnId txn) {
  auto it = entries_.find(item);
  GTPL_CHECK(it != entries_.end());
  GTPL_CHECK(it->second.pin == kInvalidTxn || it->second.pin == txn);
  it->second.pin = txn;
}

std::vector<ItemId> LeaseCache::UnpinAll(TxnId txn) {
  std::vector<ItemId> due;
  for (auto& [item, entry] : entries_) {
    if (entry.pin != txn) continue;
    entry.pin = kInvalidTxn;
    if (entry.revoke_pending) due.push_back(item);
  }
  return due;
}

TxnId LeaseCache::PinOwner(ItemId item) const {
  auto it = entries_.find(item);
  return it == entries_.end() ? kInvalidTxn : it->second.pin;
}

std::vector<ItemId> LeaseCache::PinnedItems(TxnId txn) const {
  std::vector<ItemId> out;
  for (const auto& [item, entry] : entries_) {
    if (entry.pin == txn) out.push_back(item);
  }
  return out;
}

bool LeaseCache::Has(ItemId item) const {
  return entries_.find(item) != entries_.end();
}

Version LeaseCache::VersionOf(ItemId item) const {
  auto it = entries_.find(item);
  return it == entries_.end() ? 0 : it->second.version;
}

}  // namespace gtpl::lease
