// Unit tests for the deterministic PRNG and the workload distributions.

#include "rng/rng.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "dense_sample_distinct.h"
#include "rng/distributions.h"

namespace gtpl::rng {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 12);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 12);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(3);
  std::unordered_set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(0, 9)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, StreamSeedsAreStableAndDisjoint) {
  // StreamSeed keys the named per-subsystem streams (net jitter, net queue)
  // off one base seed: deterministic, and never equal to the base seed or
  // to each other, so a subsystem drawing from its stream cannot perturb
  // another subsystem's draws.
  const uint64_t base = 42;
  EXPECT_EQ(StreamSeed(base, SeedStream::kNetJitter),
            StreamSeed(base, SeedStream::kNetJitter));
  EXPECT_NE(StreamSeed(base, SeedStream::kNetJitter),
            StreamSeed(base, SeedStream::kNetQueue));
  EXPECT_NE(StreamSeed(base, SeedStream::kNetJitter), base);
  EXPECT_NE(StreamSeed(base, SeedStream::kNetQueue), base);
  // Nearby base seeds land on unrelated stream seeds.
  EXPECT_NE(StreamSeed(base, SeedStream::kNetJitter),
            StreamSeed(base + 1, SeedStream::kNetJitter));
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(23);
  Rng b = a.Split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(DistributionsTest, UniformIntDistributionMean) {
  UniformInt dist(2, 10);
  EXPECT_DOUBLE_EQ(dist.Mean(), 6.0);
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = dist.Sample(rng);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 10);
  }
}

TEST(DistributionsTest, SampleDistinctReturnsDistinctValues) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<int32_t> sample = SampleDistinct(rng, 25, 5);
    std::unordered_set<int32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 5u);
    for (int32_t v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 25);
    }
  }
}

TEST(DistributionsTest, SampleDistinctFullPoolIsPermutation) {
  Rng rng(37);
  std::vector<int32_t> sample = SampleDistinct(rng, 8, 8);
  std::sort(sample.begin(), sample.end());
  for (int32_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(DistributionsTest, SampleDistinctZero) {
  Rng rng(41);
  EXPECT_TRUE(SampleDistinct(rng, 5, 0).empty());
}

// SampleDistinct keeps the pool virtual, yet must replay the dense partial
// Fisher-Yates exactly: the same sample and the same generator state after it
// (the next draw agrees), from a one-item pool to one far larger than any
// sample, at every k up to 8 including 0 and n. Small pools are where a step
// most often lands inside the sample or revisits a swapped-out position.
TEST(DistributionsTest, SampleDistinctMatchesDenseReference) {
  for (const int32_t n : {1, 5, 25, 8192, 1 << 20}) {
    const uint64_t seeds = n <= 8192 ? 500 : 40;  // the reference is O(n)
    for (int32_t k = 0; k <= std::min(n, 8); ++k) {
      for (uint64_t seed = 1; seed <= seeds; ++seed) {
        Rng rng(seed);
        Rng ref(seed);
        ASSERT_EQ(SampleDistinct(rng, n, k),
                  testref::DenseSampleDistinct(ref, n, k))
            << "n=" << n << " k=" << k << " seed=" << seed;
        ASSERT_EQ(rng.Next64(), ref.Next64())
            << "n=" << n << " k=" << k << " seed=" << seed;
      }
    }
  }
}

TEST(DistributionsTest, ZipfThetaZeroIsUniform) {
  Rng rng(43);
  Zipf zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 800);
}

TEST(DistributionsTest, ZipfSkewsTowardLowRanks) {
  Rng rng(47);
  Zipf zipf(25, 0.99);
  std::vector<int> counts(25, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[12]);
  EXPECT_GT(counts[0], counts[24]);
  EXPECT_GT(counts[0], 100000 / 25 * 3);
}

class ZipfRangeTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfRangeTest, SamplesStayInRange) {
  Rng rng(53);
  Zipf zipf(7, GetParam());
  for (int i = 0; i < 5000; ++i) {
    const int32_t v = zipf.Sample(rng);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfRangeTest,
                         ::testing::Values(0.0, 0.5, 0.99, 1.5));

}  // namespace
}  // namespace gtpl::rng
