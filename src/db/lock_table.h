#ifndef GTPL_DB_LOCK_TABLE_H_
#define GTPL_DB_LOCK_TABLE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace gtpl::db {

/// Outcome of a lock request.
enum class LockResult {
  kGranted,   // lock acquired immediately
  kWaiting,   // request enqueued behind conflicting holders/waiters
};

/// One granted or queued lock.
struct LockRequest {
  TxnId txn = kInvalidTxn;
  LockMode mode = LockMode::kShared;
};

/// Strict-2PL lock table with per-item FIFO wait queues, as run by the
/// paper's data server for s-2PL.
///
/// Grant policy: a request is granted iff it is compatible with every
/// current holder AND no conflicting request waits ahead of it (FIFO
/// fairness, preventing writer starvation). When locks are released, the
/// maximal compatible prefix of the queue is granted in order.
///
/// The table has no deadlock policy of its own; the caller's
/// cc::ConflictPolicy resolves blocked requests and aborts victims.
class LockTable {
 public:
  /// Called when a queued request is granted (never for immediate grants).
  using GrantCallback = std::function<void(TxnId txn, ItemId item, LockMode)>;

  explicit LockTable(int32_t num_items);

  /// Requests `mode` on `item` for `txn`. A transaction must not request an
  /// item it already holds or waits for (the workload generator guarantees
  /// distinct items per transaction).
  LockResult Request(TxnId txn, ItemId item, LockMode mode);

  /// Releases every lock and queued request of `txn`, granting any newly
  /// unblocked waiters via `on_grant`.
  void ReleaseAll(TxnId txn, const GrantCallback& on_grant);

  /// Transactions whose grant `txn` is currently waiting behind on `item`:
  /// conflicting holders plus conflicting earlier waiters, never `txn`
  /// itself. The conflict policy receives them as `txn`'s wait edges.
  std::vector<TxnId> Blockers(TxnId txn, ItemId item) const;

  /// True iff `txn` currently holds `item` in any mode.
  bool Holds(TxnId txn, ItemId item) const;

  /// Number of granted locks on `item`.
  int32_t NumHolders(ItemId item) const;

  /// Number of queued (waiting) requests on `item`.
  int32_t NumWaiters(ItemId item) const;

  /// Items currently held by `txn`.
  std::vector<ItemId> HeldItems(TxnId txn) const;

  /// Total granted locks across all items (a metrics-registry gauge).
  int64_t TotalHeld() const;

  /// Total queued (waiting) requests across all items (a metrics gauge).
  int64_t TotalWaiters() const;

 private:
  /// One per item, and most items are idle: both lists allocate nothing
  /// while empty (a std::deque would allocate even then). `waiting` is the
  /// FIFO queue (head at begin()); Request() admits one entry per
  /// transaction, so it never holds more entries than there are clients.
  struct ItemLocks {
    std::vector<LockRequest> granted;
    std::vector<LockRequest> waiting;
  };

  /// True if `request` conflicts with any entry of `granted`.
  static bool ConflictsWithGranted(const ItemLocks& locks, LockMode mode);

  /// Grants the maximal compatible queue prefix after a release.
  void PromoteWaiters(ItemId item, const GrantCallback& on_grant);

  std::vector<ItemLocks> items_;
  // txn -> items it holds (for O(1) release); waiting items tracked too.
  std::unordered_map<TxnId, std::vector<ItemId>> held_;
  std::unordered_map<TxnId, std::vector<ItemId>> queued_;
};

}  // namespace gtpl::db

#endif  // GTPL_DB_LOCK_TABLE_H_
