#include "cc/policy.h"

#include "common/check.h"
#include "core/precedence_graph.h"

namespace gtpl::cc {
namespace {

// Cycle detection at block time on g-2PL's precedence graph, where "w waits
// for h" is the request edge h -> w: record the wait edges, then abort the
// requester if they closed a cycle through it. A grant drops the granted
// transaction's waits, an abort drops the victim. A committed transaction
// waits for nothing, so it closes no cycle; its node leaves the graph with
// the last wait on it (grant or abort of that waiter).
class DetectPolicy : public ConflictPolicy {
 public:
  void OnBlocked(TxnId txn, ItemId item, const std::vector<TxnId>& blockers,
                 PolicyHost& host) override {
    (void)item;
    if (graph_.AddWaits(txn, blockers)) host.AbortTxn(txn);
  }

  void OnWaiterGranted(TxnId txn) override {
    graph_.RemoveRequestEdgesInto(txn);
  }

  void OnTxnAborted(TxnId txn) override { graph_.RemoveTxn(txn); }

 private:
  core::PrecedenceGraph graph_;
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
