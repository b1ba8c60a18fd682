// Unit tests for the database substrate: lock table and versioned data
// store.

#include "db/lock_table.h"

#include <vector>

#include <gtest/gtest.h>

#include "db/data_store.h"

namespace gtpl::db {
namespace {

std::vector<TxnId> granted_log;

LockTable::GrantCallback Recorder() {
  return [](TxnId txn, ItemId item, LockMode mode) {
    (void)item;
    (void)mode;
    granted_log.push_back(txn);
  };
}

class LockTableTest : public ::testing::Test {
 protected:
  void SetUp() override { granted_log.clear(); }
  LockTable table_{4};
};

TEST_F(LockTableTest, ExclusiveGrantsImmediatelyWhenFree) {
  EXPECT_EQ(table_.Request(1, 0, LockMode::kExclusive), LockResult::kGranted);
  EXPECT_TRUE(table_.Holds(1, 0));
  EXPECT_EQ(table_.NumHolders(0), 1);
}

TEST_F(LockTableTest, SharedLocksCoexist) {
  EXPECT_EQ(table_.Request(1, 0, LockMode::kShared), LockResult::kGranted);
  EXPECT_EQ(table_.Request(2, 0, LockMode::kShared), LockResult::kGranted);
  EXPECT_EQ(table_.Request(3, 0, LockMode::kShared), LockResult::kGranted);
  EXPECT_EQ(table_.NumHolders(0), 3);
}

TEST_F(LockTableTest, ExclusiveConflictsWithShared) {
  table_.Request(1, 0, LockMode::kShared);
  EXPECT_EQ(table_.Request(2, 0, LockMode::kExclusive),
            LockResult::kWaiting);
  EXPECT_EQ(table_.NumWaiters(0), 1);
}

TEST_F(LockTableTest, SharedWaitsBehindQueuedExclusive) {
  // FIFO fairness: a shared request may not jump an earlier exclusive one.
  table_.Request(1, 0, LockMode::kShared);
  table_.Request(2, 0, LockMode::kExclusive);
  EXPECT_EQ(table_.Request(3, 0, LockMode::kShared), LockResult::kWaiting);
  EXPECT_EQ(table_.NumWaiters(0), 2);
}

TEST_F(LockTableTest, ReleasePromotesNextWaiter) {
  table_.Request(1, 0, LockMode::kExclusive);
  table_.Request(2, 0, LockMode::kExclusive);
  table_.ReleaseAll(1, Recorder());
  EXPECT_EQ(granted_log, (std::vector<TxnId>{2}));
  EXPECT_TRUE(table_.Holds(2, 0));
}

TEST_F(LockTableTest, ReleaseBatchGrantsSharedPrefix) {
  table_.Request(1, 0, LockMode::kExclusive);
  table_.Request(2, 0, LockMode::kShared);
  table_.Request(3, 0, LockMode::kShared);
  table_.Request(4, 0, LockMode::kExclusive);
  table_.ReleaseAll(1, Recorder());
  EXPECT_EQ(granted_log, (std::vector<TxnId>{2, 3}));
  EXPECT_EQ(table_.NumHolders(0), 2);
  EXPECT_EQ(table_.NumWaiters(0), 1);
}

TEST_F(LockTableTest, RemovingQueuedRequestUnblocksFollowers) {
  table_.Request(1, 0, LockMode::kShared);
  table_.Request(2, 0, LockMode::kExclusive);  // waits
  table_.Request(3, 0, LockMode::kShared);     // waits behind the X
  table_.ReleaseAll(2, Recorder());            // abort the X requester
  EXPECT_EQ(granted_log, (std::vector<TxnId>{3}));
  EXPECT_EQ(table_.NumHolders(0), 2);
}

TEST_F(LockTableTest, BlockersIncludeHoldersAndEarlierWaiters) {
  table_.Request(1, 0, LockMode::kShared);
  table_.Request(2, 0, LockMode::kExclusive);
  table_.Request(3, 0, LockMode::kExclusive);
  const std::vector<TxnId> blockers = table_.Blockers(3, 0);
  EXPECT_EQ(blockers, (std::vector<TxnId>{1, 2}));
}

TEST_F(LockTableTest, SharedWaiterNotBlockedByCompatibleAhead) {
  table_.Request(1, 0, LockMode::kExclusive);
  table_.Request(2, 0, LockMode::kShared);
  table_.Request(3, 0, LockMode::kShared);
  // Txn 3 waits for the holder but not for the compatible queued read.
  EXPECT_EQ(table_.Blockers(3, 0), (std::vector<TxnId>{1}));
}

TEST_F(LockTableTest, ReleaseAllCoversMultipleItems) {
  table_.Request(1, 0, LockMode::kExclusive);
  table_.Request(1, 1, LockMode::kShared);
  table_.Request(2, 0, LockMode::kExclusive);
  table_.Request(2, 1, LockMode::kExclusive);
  table_.ReleaseAll(1, Recorder());
  EXPECT_EQ(granted_log, (std::vector<TxnId>{2, 2}));
  EXPECT_EQ(table_.HeldItems(1).size(), 0u);
  EXPECT_EQ(table_.HeldItems(2).size(), 2u);
}

TEST_F(LockTableTest, HeldItemsLists) {
  table_.Request(1, 0, LockMode::kShared);
  table_.Request(1, 2, LockMode::kExclusive);
  const std::vector<ItemId> held = table_.HeldItems(1);
  EXPECT_EQ(held.size(), 2u);
}

TEST(DataStoreTest, VersionsStartAtZero) {
  DataStore store(3);
  EXPECT_EQ(store.VersionOf(0), 0);
  EXPECT_EQ(store.VersionOf(2), 0);
}

TEST(DataStoreTest, InstallSetsTheVersion) {
  DataStore store(2);
  store.Install(0, 1);
  EXPECT_EQ(store.VersionOf(0), 1);
  store.Install(0, 2);
  EXPECT_EQ(store.VersionOf(0), 2);
  EXPECT_EQ(store.VersionOf(1), 0);
}

TEST(DataStoreTest, ReinstallSameVersionAllowed) {
  DataStore store(1);
  store.Install(0, 3);
  store.Install(0, 3);  // read-only circulation returns unchanged
  EXPECT_EQ(store.VersionOf(0), 3);
}

TEST(DataStoreDeathTest, RejectsStaleInstall) {
  DataStore store(1);
  store.Install(0, 5);
  EXPECT_DEATH(store.Install(0, 4), "stale");
}

}  // namespace
}  // namespace gtpl::db
