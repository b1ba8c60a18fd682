#include "rng/distributions.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace gtpl::rng {

UniformInt::UniformInt(int64_t lo, int64_t hi) : lo_(lo), hi_(hi) {
  GTPL_CHECK_LE(lo, hi);
}

std::vector<int32_t> SampleDistinct(Rng& rng, int32_t n, int32_t k) {
  GTPL_CHECK_GE(n, k);
  GTPL_CHECK_GE(k, 0);
  // Partial Fisher-Yates over the identity pool [0, n): step i swaps pool[i]
  // with pool[UniformInt(i, n - 1)] and the first k positions are the sample.
  // The pool stays virtual: `sample` holds positions [0, k), `moved` the
  // values swapped out to positions >= k (at most one per step); every other
  // position still holds its own index. O(k^2) time and O(k) memory whatever
  // n is.
  std::vector<int32_t> sample(static_cast<size_t>(k));
  std::iota(sample.begin(), sample.end(), 0);
  std::vector<std::pair<int32_t, int32_t>> moved;  // (position, value)
  moved.reserve(static_cast<size_t>(k));
  for (int32_t i = 0; i < k; ++i) {
    const auto j = static_cast<int32_t>(rng.UniformInt(i, n - 1));
    int32_t& at_i = sample[static_cast<size_t>(i)];
    if (j < k) {
      std::swap(at_i, sample[static_cast<size_t>(j)]);
      continue;
    }
    const auto it =
        std::find_if(moved.begin(), moved.end(),
                     [j](const auto& entry) { return entry.first == j; });
    if (it == moved.end()) {
      moved.emplace_back(j, at_i);
      at_i = j;
    } else {
      std::swap(at_i, it->second);
    }
  }
  return sample;
}

Zipf::Zipf(int32_t n, double theta) : n_(n), theta_(theta) {
  GTPL_CHECK_GT(n, 0);
  GTPL_CHECK_GE(theta, 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (int32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

int32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int32_t>(it - cdf_.begin());
}

}  // namespace gtpl::rng
