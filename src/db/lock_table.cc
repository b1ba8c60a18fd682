#include "db/lock_table.h"

#include <algorithm>

#include "common/check.h"

namespace gtpl::db {

LockTable::LockTable(int32_t num_items)
    : items_(static_cast<size_t>(num_items)) {
  GTPL_CHECK_GT(num_items, 0);
}

bool LockTable::ConflictsWithGranted(const ItemLocks& locks, LockMode mode) {
  for (const LockRequest& holder : locks.granted) {
    if (!Compatible(holder.mode, mode)) return true;
  }
  return false;
}

LockResult LockTable::Request(TxnId txn, ItemId item, LockMode mode) {
  GTPL_CHECK_GE(item, 0);
  GTPL_CHECK_LT(static_cast<size_t>(item), items_.size());
  ItemLocks& locks = items_[static_cast<size_t>(item)];
  for (const LockRequest& holder : locks.granted) {
    GTPL_CHECK_NE(holder.txn, txn) << "txn re-requested a held item";
  }
  for (const LockRequest& waiter : locks.waiting) {
    GTPL_CHECK_NE(waiter.txn, txn) << "txn re-requested a queued item";
  }
  // FIFO fairness: grant only if compatible with holders and nothing waits.
  if (locks.waiting.empty() && !ConflictsWithGranted(locks, mode)) {
    locks.granted.push_back(LockRequest{txn, mode});
    held_[txn].push_back(item);
    return LockResult::kGranted;
  }
  locks.waiting.push_back(LockRequest{txn, mode});
  queued_[txn].push_back(item);
  return LockResult::kWaiting;
}

void LockTable::ReleaseAll(TxnId txn, const GrantCallback& on_grant) {
  std::vector<ItemId> touched;
  if (auto it = queued_.find(txn); it != queued_.end()) {
    for (ItemId item : it->second) {
      auto& waiting = items_[static_cast<size_t>(item)].waiting;
      auto pos = std::find_if(
          waiting.begin(), waiting.end(),
          [txn](const LockRequest& r) { return r.txn == txn; });
      GTPL_CHECK(pos != waiting.end());
      waiting.erase(pos);
      touched.push_back(item);
    }
    queued_.erase(it);
  }
  if (auto it = held_.find(txn); it != held_.end()) {
    std::vector<ItemId> released = std::move(it->second);
    held_.erase(it);
    for (ItemId item : released) {
      auto& granted = items_[static_cast<size_t>(item)].granted;
      auto pos =
          std::find_if(granted.begin(), granted.end(),
                       [txn](const LockRequest& r) { return r.txn == txn; });
      GTPL_CHECK(pos != granted.end());
      granted.erase(pos);
      touched.push_back(item);
    }
  }
  // Removing a queued request can unblock waiters behind it even when no
  // lock was held on that item, so promote on every touched item.
  for (ItemId item : touched) PromoteWaiters(item, on_grant);
}

void LockTable::PromoteWaiters(ItemId item, const GrantCallback& on_grant) {
  ItemLocks& locks = items_[static_cast<size_t>(item)];
  while (!locks.waiting.empty()) {
    const LockRequest& head = locks.waiting.front();
    if (ConflictsWithGranted(locks, head.mode)) break;
    LockRequest granted = head;
    locks.waiting.erase(locks.waiting.begin());
    locks.granted.push_back(granted);
    held_[granted.txn].push_back(item);
    auto& queue_list = queued_[granted.txn];
    queue_list.erase(std::find(queue_list.begin(), queue_list.end(), item));
    if (queue_list.empty()) queued_.erase(granted.txn);
    on_grant(granted.txn, item, granted.mode);
  }
}

std::vector<TxnId> LockTable::Blockers(TxnId txn, ItemId item) const {
  const ItemLocks& locks = items_[static_cast<size_t>(item)];
  // Find the txn's queued position and mode.
  auto self = std::find_if(
      locks.waiting.begin(), locks.waiting.end(),
      [txn](const LockRequest& r) { return r.txn == txn; });
  GTPL_CHECK(self != locks.waiting.end()) << "Blockers() for non-waiter";
  std::vector<TxnId> blockers;
  for (const LockRequest& holder : locks.granted) {
    if (!Compatible(holder.mode, self->mode)) blockers.push_back(holder.txn);
  }
  for (auto it = locks.waiting.begin(); it != self; ++it) {
    if (!Compatible(it->mode, self->mode)) blockers.push_back(it->txn);
  }
  return blockers;
}

bool LockTable::Holds(TxnId txn, ItemId item) const {
  auto it = held_.find(txn);
  if (it == held_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), item) !=
         it->second.end();
}

int32_t LockTable::NumHolders(ItemId item) const {
  return static_cast<int32_t>(items_[static_cast<size_t>(item)].granted.size());
}

int32_t LockTable::NumWaiters(ItemId item) const {
  return static_cast<int32_t>(items_[static_cast<size_t>(item)].waiting.size());
}

std::vector<ItemId> LockTable::HeldItems(TxnId txn) const {
  auto it = held_.find(txn);
  if (it == held_.end()) return {};
  return it->second;
}

int64_t LockTable::TotalHeld() const {
  int64_t total = 0;
  for (const ItemLocks& locks : items_) {
    total += static_cast<int64_t>(locks.granted.size());
  }
  return total;
}

int64_t LockTable::TotalWaiters() const {
  int64_t total = 0;
  for (const ItemLocks& locks : items_) {
    total += static_cast<int64_t>(locks.waiting.size());
  }
  return total;
}

}  // namespace gtpl::db
