// Unit tests for the workload generator (paper Table 1 profile).

#include "workload/generator.h"

#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "dense_sample_distinct.h"
#include "workload/txn_spec.h"

namespace gtpl::workload {
namespace {

WorkloadProfile PaperProfile() { return WorkloadProfile{}; }

TEST(GeneratorTest, ItemCountWithinRange) {
  WorkloadGenerator gen(PaperProfile(), 1);
  for (int i = 0; i < 1000; ++i) {
    const TxnSpec spec = gen.NextTxn();
    EXPECT_GE(spec.ops.size(), 1u);
    EXPECT_LE(spec.ops.size(), 5u);
  }
}

TEST(GeneratorTest, ItemsAreDistinctAndInPool) {
  WorkloadGenerator gen(PaperProfile(), 2);
  for (int i = 0; i < 1000; ++i) {
    const TxnSpec spec = gen.NextTxn();
    std::unordered_set<ItemId> seen;
    for (const Operation& op : spec.ops) {
      EXPECT_GE(op.item, 0);
      EXPECT_LT(op.item, 25);
      EXPECT_TRUE(seen.insert(op.item).second) << "duplicate item";
    }
  }
}

TEST(GeneratorTest, ReadProbabilityZeroMakesAllWrites) {
  WorkloadProfile profile = PaperProfile();
  profile.read_prob = 0.0;
  WorkloadGenerator gen(profile, 3);
  for (int i = 0; i < 200; ++i) {
    const TxnSpec spec = gen.NextTxn();
    EXPECT_EQ(spec.NumWrites(), static_cast<int32_t>(spec.ops.size()));
    EXPECT_FALSE(spec.IsReadOnly());
  }
}

TEST(GeneratorTest, ReadProbabilityOneMakesAllReads) {
  WorkloadProfile profile = PaperProfile();
  profile.read_prob = 1.0;
  WorkloadGenerator gen(profile, 4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(gen.NextTxn().IsReadOnly());
  }
}

TEST(GeneratorTest, ReadFractionMatchesProbability) {
  WorkloadProfile profile = PaperProfile();
  profile.read_prob = 0.6;
  WorkloadGenerator gen(profile, 5);
  int64_t reads = 0;
  int64_t total = 0;
  for (int i = 0; i < 5000; ++i) {
    const TxnSpec spec = gen.NextTxn();
    for (const Operation& op : spec.ops) {
      reads += op.mode == LockMode::kShared ? 1 : 0;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(reads) / total, 0.6, 0.02);
}

TEST(GeneratorTest, ThinkAndIdleWithinPaperRanges) {
  WorkloadGenerator gen(PaperProfile(), 6);
  for (int i = 0; i < 1000; ++i) {
    const SimTime think = gen.SampleThink();
    EXPECT_GE(think, 1);
    EXPECT_LE(think, 3);
    const SimTime idle = gen.SampleIdle();
    EXPECT_GE(idle, 2);
    EXPECT_LE(idle, 10);
  }
}

TEST(GeneratorTest, DeterministicPerSeed) {
  WorkloadGenerator a(PaperProfile(), 9);
  WorkloadGenerator b(PaperProfile(), 9);
  for (int i = 0; i < 50; ++i) {
    const TxnSpec sa = a.NextTxn();
    const TxnSpec sb = b.NextTxn();
    ASSERT_EQ(sa.ops.size(), sb.ops.size());
    for (size_t j = 0; j < sa.ops.size(); ++j) {
      EXPECT_EQ(sa.ops[j].item, sb.ops[j].item);
      EXPECT_EQ(sa.ops[j].mode, sb.ops[j].mode);
    }
  }
}

TEST(GeneratorTest, SortedAccessOrdersItems) {
  WorkloadProfile profile = PaperProfile();
  profile.sorted_access = true;
  WorkloadGenerator gen(profile, 10);
  for (int i = 0; i < 500; ++i) {
    const TxnSpec spec = gen.NextTxn();
    for (size_t j = 1; j < spec.ops.size(); ++j) {
      EXPECT_LT(spec.ops[j - 1].item, spec.ops[j].item);
    }
  }
}

TEST(GeneratorTest, ZipfSkewsAccesses) {
  WorkloadProfile profile = PaperProfile();
  profile.zipf_theta = 0.99;
  WorkloadGenerator gen(profile, 11);
  std::vector<int> counts(25, 0);
  for (int i = 0; i < 5000; ++i) {
    for (const Operation& op : gen.NextTxn().ops) ++counts[op.item];
  }
  EXPECT_GT(counts[0], counts[24] * 2);
}

TEST(GeneratorTest, ZipfStillDistinct) {
  WorkloadProfile profile = PaperProfile();
  profile.zipf_theta = 1.2;
  WorkloadGenerator gen(profile, 12);
  for (int i = 0; i < 500; ++i) {
    const TxnSpec spec = gen.NextTxn();
    std::unordered_set<ItemId> seen;
    for (const Operation& op : spec.ops) {
      EXPECT_TRUE(seen.insert(op.item).second);
    }
  }
}

// At the paper defaults (zipf 0, repeat 0) every draw must stay on the
// single legacy stream, in the legacy order: item count, item selection,
// per-op modes, then whatever think/idle samples the engine interleaves.
// This replays that order on a raw Rng, drawing the items with the dense
// reference Fisher-Yates (not the SampleDistinct under test), and demands
// bit-identical output — the "defaults unchanged" half of the stream-split
// contract. Also at 8192 items, the sharded A19 item space.
TEST(GeneratorTest, DefaultsReplayTheSingleLegacyStream) {
  const uint64_t seed = 77;
  for (const int32_t num_items : {25, 8192}) {
    WorkloadProfile profile = PaperProfile();
    profile.num_items = num_items;
    WorkloadGenerator gen(profile, seed);
    rng::Rng ref(seed);
    for (int i = 0; i < 200; ++i) {
      const TxnSpec spec = gen.NextTxn();
      const auto count = static_cast<int32_t>(ref.UniformInt(1, 5));
      const std::vector<int32_t> items =
          testref::DenseSampleDistinct(ref, num_items, count);
      ASSERT_EQ(spec.ops.size(), items.size());
      for (size_t j = 0; j < items.size(); ++j) {
        EXPECT_EQ(spec.ops[j].item, items[j]);
        const LockMode mode =
            ref.Bernoulli(0.5) ? LockMode::kShared : LockMode::kExclusive;
        EXPECT_EQ(spec.ops[j].mode, mode);
      }
      EXPECT_EQ(gen.SampleThink(), ref.UniformInt(1, 3));
      EXPECT_EQ(gen.SampleIdle(), ref.UniformInt(2, 10));
    }
  }
}

// With an access-pattern knob active the item/mode draws move to dedicated
// streams, so toggling ANOTHER access-pattern knob must leave the timing
// (think/idle) sequence untouched — the other half of the contract.
TEST(GeneratorTest, AccessKnobsDoNotPerturbTimingDraws) {
  WorkloadProfile with_zipf = PaperProfile();
  with_zipf.zipf_theta = 0.8;
  WorkloadProfile with_repeat = with_zipf;
  with_repeat.repeat_prob = 0.5;
  WorkloadGenerator a(with_zipf, 21);
  WorkloadGenerator b(with_repeat, 21);
  for (int i = 0; i < 300; ++i) {
    a.NextTxn();  // draws from the items/mix streams only
    b.NextTxn();
    EXPECT_EQ(a.SampleThink(), b.SampleThink());
    EXPECT_EQ(a.SampleIdle(), b.SampleIdle());
  }
}

TEST(GeneratorTest, RepeatProbReusesPreviousItemSet) {
  WorkloadProfile profile = PaperProfile();
  profile.repeat_prob = 1.0;
  WorkloadGenerator gen(profile, 22);
  TxnSpec prev = gen.NextTxn();
  for (int i = 0; i < 100; ++i) {
    const TxnSpec next = gen.NextTxn();
    ASSERT_EQ(next.ops.size(), prev.ops.size());
    for (size_t j = 0; j < next.ops.size(); ++j) {
      EXPECT_EQ(next.ops[j].item, prev.ops[j].item);  // modes are redrawn
    }
    prev = next;
  }
}

TEST(TxnSpecTest, DebugStringFormat) {
  TxnSpec spec;
  spec.id = 7;
  spec.ops = {{3, LockMode::kShared}, {5, LockMode::kExclusive}};
  EXPECT_EQ(spec.DebugString(), "T7: r(3) w(5)");
}

TEST(GeneratorTest, SingleItemPoolProfile) {
  WorkloadProfile profile = PaperProfile();
  profile.num_items = 1;
  profile.min_items_per_txn = 1;
  profile.max_items_per_txn = 1;
  WorkloadGenerator gen(profile, 13);
  for (int i = 0; i < 100; ++i) {
    const TxnSpec spec = gen.NextTxn();
    ASSERT_EQ(spec.ops.size(), 1u);
    EXPECT_EQ(spec.ops[0].item, 0);
  }
}

}  // namespace
}  // namespace gtpl::workload
