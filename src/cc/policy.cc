#include "cc/policy.h"

#include "common/check.h"
#include "db/waits_for_graph.h"

namespace gtpl::cc {
namespace {

// Cycle detection at block time, exactly as the pre-refactor s-2PL engines
// did it: record the wait edges, then abort the requester if they closed a
// cycle through it. The engine routes OnWaiterGranted/OnTxnFinished to
// ClearWaits/RemoveTxn at the same call sites the old engines used, so the
// graph contents — and therefore every abort and downstream event time —
// are bit-identical.
class DetectPolicy : public ConflictPolicy {
 public:
  void OnBlocked(TxnId txn, ItemId item, const std::vector<TxnId>& blockers,
                 PolicyHost& host) override {
    (void)item;
    wfg_.AddWaits(txn, blockers);
    if (wfg_.HasCycleFrom(txn)) host.AbortTxn(txn);
  }

  void OnWaiterGranted(TxnId txn) override { wfg_.ClearWaits(txn); }

  void OnTxnFinished(TxnId txn) override { wfg_.RemoveTxn(txn); }

 private:
  db::WaitsForGraph wfg_;
};

class NoWaitPolicy : public ConflictPolicy {
 public:
  void OnBlocked(TxnId txn, ItemId item, const std::vector<TxnId>& blockers,
                 PolicyHost& host) override {
    (void)item;
    (void)blockers;
    host.AbortTxn(txn);
  }
};

class WaitDiePolicy : public ConflictPolicy {
 public:
  void OnBlocked(TxnId txn, ItemId item, const std::vector<TxnId>& blockers,
                 PolicyHost& host) override {
    (void)item;
    // Txn ids are assigned monotonically, so smaller id == older. The
    // blocker set includes conflicting earlier waiters, so a granted wait
    // edge always points old -> young even through the FIFO queue.
    for (TxnId blocker : blockers) {
      if (blocker < txn) {
        host.AbortTxn(txn);
        return;
      }
    }
  }
};

class WoundWaitPolicy : public ConflictPolicy {
 public:
  void OnBlocked(TxnId txn, ItemId item, const std::vector<TxnId>& blockers,
                 PolicyHost& host) override {
    (void)item;
    // Smaller id == older. The older requester wounds every younger
    // blocker still woundable (the blocker set may repeat a txn across
    // holder/waiter roles, and a wound may already have landed — Woundable
    // goes false the moment a victim is doomed, so each txn is wounded at
    // most once); younger or unwoundable blockers are simply waited on.
    // Every realized wait edge points young -> old: deadlock-free.
    for (TxnId blocker : blockers) {
      if (blocker > txn && host.Woundable(blocker)) {
        host.AbortTxn(blocker);
      }
    }
  }
};

class OrderedPolicy : public ConflictPolicy {
 public:
  void OnBlocked(TxnId txn, ItemId item, const std::vector<TxnId>& blockers,
                 PolicyHost& host) override {
    (void)blockers;
    const ItemId held = host.MaxHeldItem(txn);
    if (held != kInvalidItem && held > item) {
      host.AbortTxn(txn);
    }
  }
};

}  // namespace

std::unique_ptr<ConflictPolicy> MakeDetectPolicy() {
  return std::make_unique<DetectPolicy>();
}

std::unique_ptr<ConflictPolicy> MakeNoWaitPolicy() {
  return std::make_unique<NoWaitPolicy>();
}

std::unique_ptr<ConflictPolicy> MakeWaitDiePolicy() {
  return std::make_unique<WaitDiePolicy>();
}

std::unique_ptr<ConflictPolicy> MakeWoundWaitPolicy() {
  return std::make_unique<WoundWaitPolicy>();
}

std::unique_ptr<ConflictPolicy> MakeOrderedPolicy() {
  return std::make_unique<OrderedPolicy>();
}

}  // namespace gtpl::cc
