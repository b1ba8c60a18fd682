// Unit tests for forward-list ordering policies.

#include "core/ordering.h"

#include <gtest/gtest.h>

namespace gtpl::core {
namespace {

std::vector<PendingRequest> Batch() {
  return {
      {1, 1, LockMode::kExclusive, 0},
      {2, 2, LockMode::kShared, 0},
      {3, 3, LockMode::kExclusive, 0},
      {4, 4, LockMode::kShared, 0},
  };
}

std::vector<TxnId> Txns(const std::vector<PendingRequest>& batch) {
  std::vector<TxnId> out;
  for (const PendingRequest& r : batch) out.push_back(r.txn);
  return out;
}

TEST(OrderingTest, FifoKeepsArrivalOrder) {
  const auto ordered = ApplyPolicy(OrderingPolicy::kFifo, Batch());
  EXPECT_EQ(Txns(ordered), (std::vector<TxnId>{1, 2, 3, 4}));
}

TEST(OrderingTest, ReadsFirstStablePartition) {
  const auto ordered = ApplyPolicy(OrderingPolicy::kReadsFirst, Batch());
  EXPECT_EQ(Txns(ordered), (std::vector<TxnId>{2, 4, 1, 3}));
}

TEST(OrderingTest, WritesFirstStablePartition) {
  const auto ordered = ApplyPolicy(OrderingPolicy::kWritesFirst, Batch());
  EXPECT_EQ(Txns(ordered), (std::vector<TxnId>{1, 3, 2, 4}));
}

TEST(OrderingTest, EmptyBatch) {
  EXPECT_TRUE(ApplyPolicy(OrderingPolicy::kReadsFirst, {}).empty());
}

TEST(OrderingTest, PolicyNames) {
  EXPECT_STREQ(ToString(OrderingPolicy::kFifo), "fifo");
  EXPECT_STREQ(ToString(OrderingPolicy::kReadsFirst), "reads-first");
  EXPECT_STREQ(ToString(OrderingPolicy::kWritesFirst), "writes-first");
}

}  // namespace
}  // namespace gtpl::core
