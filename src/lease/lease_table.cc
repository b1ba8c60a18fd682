#include "lease/lease_table.h"

#include <algorithm>

#include "common/check.h"

namespace gtpl::lease {
namespace {

bool SortedContains(const std::vector<SiteId>& v, SiteId site) {
  return std::binary_search(v.begin(), v.end(), site);
}

void SortedInsert(std::vector<SiteId>& v, SiteId site) {
  auto it = std::lower_bound(v.begin(), v.end(), site);
  if (it == v.end() || *it != site) v.insert(it, site);
}

void SortedErase(std::vector<SiteId>& v, SiteId site) {
  auto it = std::lower_bound(v.begin(), v.end(), site);
  if (it != v.end() && *it == site) v.erase(it);
}

}  // namespace

bool LeaseTable::CompatibleWithHolders(const ItemLease& entry, SiteId site,
                                       LockMode mode) {
  if (entry.writer >= 0 && entry.writer != site) return false;
  if (mode == LockMode::kExclusive) {
    for (SiteId r : entry.readers) {
      if (r != site) return false;
    }
  }
  return true;
}

void LeaseTable::AddHolder(ItemLease& entry, SiteId site, LockMode mode) {
  if (mode == LockMode::kExclusive) {
    SortedErase(entry.readers, site);
    GTPL_CHECK(entry.writer < 0 || entry.writer == site);
    entry.writer = site;
  } else {
    if (entry.writer == site) return;  // write lease already covers reads
    SortedInsert(entry.readers, site);
  }
}

void LeaseTable::IssueRevokesForHead(ItemLease& entry,
                                     std::vector<SiteId>* out) {
  GTPL_CHECK(!entry.queue.empty());
  const LeaseWaiter& head = entry.queue.front();
  std::vector<SiteId> targets;
  if (entry.writer >= 0 && entry.writer != head.site) {
    targets.push_back(entry.writer);
  }
  if (head.mode == LockMode::kExclusive) {
    for (SiteId r : entry.readers) {
      if (r != head.site) targets.push_back(r);
    }
  }
  std::sort(targets.begin(), targets.end());
  for (SiteId site : targets) {
    if (!SortedContains(entry.revokes, site)) {
      SortedInsert(entry.revokes, site);
      out->push_back(site);
    }
  }
}

AdmitOutcome LeaseTable::Admit(TxnId txn, SiteId site, ItemId item,
                               LockMode mode, SimTime now) {
  AdmitOutcome out;
  ItemLease& entry = items_[item];
  if (entry.queue.empty() && entry.revokes.empty() &&
      CompatibleWithHolders(entry, site, mode)) {
    AddHolder(entry, site, mode);
    out.granted = true;
    return out;
  }
  // A holder site whose own lease is being revoked must queue like anyone
  // else; a holder with a *sufficient* untouched lease (client expired it
  // locally, or the request raced a release) gets a refresh only via the
  // grant path above, so here it waits its turn too.
  for (const LeaseWaiter& w : entry.queue) {
    GTPL_CHECK(w.txn != txn);   // one outstanding op per transaction
    GTPL_CHECK(w.site != site);  // MPL 1: one transaction per site
  }
  entry.queue.push_back(LeaseWaiter{txn, site, mode, now});
  IssueRevokesForHead(entry, &out.revoke_sites);
  out.collector = entry.queue.front().txn;
  return out;
}

bool LeaseTable::Release(SiteId site, ItemId item) {
  auto it = items_.find(item);
  if (it == items_.end()) return false;
  ItemLease& entry = it->second;
  bool changed = false;
  if (entry.writer == site) {
    entry.writer = -1;
    changed = true;
  }
  if (SortedContains(entry.readers, site)) {
    SortedErase(entry.readers, site);
    changed = true;
  }
  if (SortedContains(entry.revokes, site)) {
    SortedErase(entry.revokes, site);
    changed = true;
  }
  if (entry.Idle()) items_.erase(it);
  return changed;
}

PromoteOutcome LeaseTable::Promote(ItemId item, SimTime now) {
  (void)now;
  PromoteOutcome out;
  auto it = items_.find(item);
  if (it == items_.end()) return out;
  ItemLease& entry = it->second;
  // The lease-coherence invariant: nothing is granted while any revoke on
  // the item is outstanding.
  while (entry.revokes.empty() && !entry.queue.empty()) {
    const LeaseWaiter head = entry.queue.front();
    if (!CompatibleWithHolders(entry, head.site, head.mode)) break;
    entry.queue.pop_front();
    AddHolder(entry, head.site, head.mode);
    out.granted.push_back(head);
  }
  if (!entry.queue.empty()) {
    IssueRevokesForHead(entry, &out.revoke_sites);
    out.collector = entry.queue.front().txn;
  }
  if (entry.Idle()) items_.erase(it);
  return out;
}

std::vector<ItemId> LeaseTable::RemoveTxn(TxnId txn) {
  std::vector<ItemId> affected;
  for (auto it = items_.begin(); it != items_.end();) {
    ItemLease& entry = it->second;
    const size_t before = entry.queue.size();
    entry.queue.erase(
        std::remove_if(entry.queue.begin(), entry.queue.end(),
                       [txn](const LeaseWaiter& w) { return w.txn == txn; }),
        entry.queue.end());
    if (entry.queue.size() != before) affected.push_back(it->first);
    if (entry.Idle()) {
      it = items_.erase(it);
    } else {
      ++it;
    }
  }
  return affected;
}

std::vector<SiteId> LeaseTable::ConflictingHolders(SiteId site, ItemId item,
                                                   LockMode mode) const {
  std::vector<SiteId> out;
  auto it = items_.find(item);
  if (it == items_.end()) return out;
  const ItemLease& entry = it->second;
  if (entry.writer >= 0 && entry.writer != site) out.push_back(entry.writer);
  if (mode == LockMode::kExclusive) {
    for (SiteId r : entry.readers) {
      if (r != site) out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TxnId> LeaseTable::QueuedAhead(TxnId txn, ItemId item) const {
  std::vector<TxnId> out;
  auto it = items_.find(item);
  if (it == items_.end()) return out;
  for (const LeaseWaiter& w : it->second.queue) {
    if (w.txn == txn) break;
    out.push_back(w.txn);
  }
  return out;
}

std::vector<SiteId> LeaseTable::RevokedSites(ItemId item) const {
  auto it = items_.find(item);
  if (it == items_.end()) return {};
  return it->second.revokes;
}

std::vector<LeaseWaiter> LeaseTable::Waiters(ItemId item) const {
  auto it = items_.find(item);
  if (it == items_.end()) return {};
  return {it->second.queue.begin(), it->second.queue.end()};
}

int64_t LeaseTable::TotalWaiters() const {
  int64_t total = 0;
  for (const auto& [item, entry] : items_) {
    total += static_cast<int64_t>(entry.queue.size());
  }
  return total;
}

int64_t LeaseTable::TotalLeases() const {
  int64_t total = 0;
  for (const auto& [item, entry] : items_) {
    total += static_cast<int64_t>(entry.readers.size()) +
             (entry.writer >= 0 ? 1 : 0);
  }
  return total;
}

}  // namespace gtpl::lease
