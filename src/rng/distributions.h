#ifndef GTPL_RNG_DISTRIBUTIONS_H_
#define GTPL_RNG_DISTRIBUTIONS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "rng/rng.h"

namespace gtpl::rng {

/// Uniform integer distribution over an inclusive range [lo, hi], matching
/// the paper's U[min,max] think/idle/access-count parameters.
class UniformInt {
 public:
  UniformInt(int64_t lo, int64_t hi);

  int64_t Sample(Rng& rng) const { return rng.UniformInt(lo_, hi_); }
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }
  double Mean() const { return 0.5 * static_cast<double>(lo_ + hi_); }

 private:
  int64_t lo_;
  int64_t hi_;
};

/// Samples `k` distinct values from [0, n) via partial Fisher-Yates.
/// Used to pick a transaction's access set from the hot-item pool. Costs
/// O(k^2) time and O(k) memory: the n-item pool is never materialized.
std::vector<int32_t> SampleDistinct(Rng& rng, int32_t n, int32_t k);

/// Zipf(n, theta) over ranks 1..n mapped to values 0..n-1 (extension beyond
/// the paper's uniform access; theta = 0 degenerates to uniform).
/// Inverse-CDF over a precomputed table: O(log n) per sample.
class Zipf {
 public:
  Zipf(int32_t n, double theta);

  int32_t Sample(Rng& rng) const;
  int32_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  int32_t n_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[i] = P(value <= i)
};

}  // namespace gtpl::rng

#endif  // GTPL_RNG_DISTRIBUTIONS_H_
