// Test reference for rng::SampleDistinct: the dense partial Fisher-Yates that
// materializes the whole pool [0, n). SampleDistinct must match it bit for
// bit, output and generator state alike, so the rng and workload tests
// replay against this copy rather than against the code under test.

#ifndef GTPL_TESTS_DENSE_SAMPLE_DISTINCT_H_
#define GTPL_TESTS_DENSE_SAMPLE_DISTINCT_H_

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "rng/rng.h"

namespace gtpl::testref {

inline std::vector<int32_t> DenseSampleDistinct(rng::Rng& rng, int32_t n,
                                                int32_t k) {
  std::vector<int32_t> pool(static_cast<size_t>(n));
  std::iota(pool.begin(), pool.end(), 0);
  for (int32_t i = 0; i < k; ++i) {
    const int64_t j = rng.UniformInt(i, n - 1);
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
  }
  pool.resize(static_cast<size_t>(k));
  return pool;
}

}  // namespace gtpl::testref

#endif  // GTPL_TESTS_DENSE_SAMPLE_DISTINCT_H_
