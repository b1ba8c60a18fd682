#ifndef GTPL_CC_POLICY_H_
#define GTPL_CC_POLICY_H_

#include <memory>
#include <vector>

#include "common/types.h"
#include "protocols/config.h"

namespace gtpl::cc {

/// Server-plane services a ConflictPolicy may invoke while handling a
/// blocked request. Implemented by the generic lock engine
/// (cc::LockCcEngine); the policy never talks to lock tables or the
/// network directly.
class PolicyHost {
 public:
  virtual ~PolicyHost() = default;

  /// Aborts `victim` at the server plane: drops its locks and queued
  /// requests on every shard, promotes unblocked waiters, and dooms it at
  /// the client (ServerAbortDecision). `victim` must be an active
  /// transaction; a transaction that reached its commit point is never a
  /// legal victim (it has no outstanding request, so it cannot sit on a
  /// waits-for cycle — see DESIGN.md §12).
  virtual void AbortTxn(TxnId victim) = 0;

  /// Largest item id `victim` currently holds a lock on across every
  /// shard, or kInvalidItem if it holds none (ordered policies).
  virtual ItemId MaxHeldItem(TxnId txn) const = 0;

  /// Whether `txn` is a legal abort victim right now: active, not already
  /// doomed, and not past its commit point (a committing transaction's
  /// releases are in flight — wounding it would break the commit promise;
  /// wound-wait lets such a blocker finish and waits instead).
  virtual bool Woundable(TxnId txn) = 0;
};

/// Strategy slot deciding what happens when a lock request blocks — the
/// deadlock-handling half of a 2PL variant. The generic lock engine calls
/// the hooks at exactly the points the original s-2PL engine consulted its
/// waits-for graph, so the detection policy reproduces it bit for bit:
///
///   OnBlocked        after LockTable::Request returned kWaiting
///   OnWaiterGranted  for each queued request promoted by a release
///   OnTxnFinished    when the transaction's last shard released its locks
///                    (commit) or the abort decision dropped them
///
/// Policies are engine-local and single-threaded like the simulator; they
/// must not draw randomness (determinism contract, DESIGN.md §12).
class ConflictPolicy {
 public:
  virtual ~ConflictPolicy() = default;

  /// `txn`'s request for `item` just blocked behind `blockers` (conflicting
  /// holders plus conflicting earlier waiters). May wait (do nothing) or
  /// resolve via host.AbortTxn — possibly aborting `txn` itself.
  virtual void OnBlocked(TxnId txn, ItemId item,
                         const std::vector<TxnId>& blockers,
                         PolicyHost& host) = 0;

  /// A queued request of `txn` was promoted to granted.
  virtual void OnWaiterGranted(TxnId txn) { (void)txn; }

  /// `txn` left the server plane: its last shard released (commit) or it
  /// was aborted.
  virtual void OnTxnFinished(TxnId txn) { (void)txn; }
};

/// Waits-for-graph cycle detection at block time; the requester whose
/// request closed a cycle aborts — the paper's s-2PL resolution,
/// bit-identical to the pre-refactor engines.
std::unique_ptr<ConflictPolicy> MakeDetectPolicy();

/// No-wait 2PL: any blocked request aborts the requester immediately.
/// Trivially deadlock-free; trades lock waiting for restarts.
std::unique_ptr<ConflictPolicy> MakeNoWaitPolicy();

/// Wait-die 2PL: a requester may wait only for strictly younger
/// transactions (larger ids); if any blocker is older, the requester dies.
/// Every wait edge points old -> young, so no cycle can form. Restarts get
/// fresh (younger) ids, so a repeatedly dying transaction does not age into
/// priority — the classic wound-wait starvation guarantee does not carry
/// over (DESIGN.md §12).
std::unique_ptr<ConflictPolicy> MakeWaitDiePolicy();

/// Wound-wait 2PL: an older requester (smaller id) wounds every younger
/// blocker — aborts it on the spot — and a younger requester waits for its
/// older blockers. Wait edges only ever point young -> old, so no cycle can
/// form. Dual of wait-die: restarts keep a transaction's conflicts aborting
/// in its favor once it is the oldest, but blockers already past their
/// commit point are unwoundable and are waited on instead (DESIGN.md §12).
std::unique_ptr<ConflictPolicy> MakeWoundWaitPolicy();

/// Ordered 2PL (Brook-2PL spirit): a requester may block only on an item
/// larger than every item it already holds; blocking out of item order
/// aborts the requester. Around any would-be cycle the awaited item id
/// strictly increases through holder links and never decreases through
/// FIFO queue links, so deadlock is impossible — no graph is maintained at
/// all. Pairs with the engine's release-at-prepare fast path.
std::unique_ptr<ConflictPolicy> MakeOrderedPolicy();

}  // namespace gtpl::cc

#endif  // GTPL_CC_POLICY_H_
