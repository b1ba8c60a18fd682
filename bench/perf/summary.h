#ifndef GTPL_BENCH_PERF_SUMMARY_H_
#define GTPL_BENCH_PERF_SUMMARY_H_

#include <algorithm>
#include <utility>
#include <vector>

namespace gtpl::perf {

/// Order statistics of a sample. Quartiles use the same exclusive method as
/// Python's statistics.quantiles(values, n=4), so a spread computed here
/// matches one computed from the JSON output.
struct Summary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  int n = 0;
};

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = static_cast<int>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.median = n % 2 == 1 ? values[n / 2]
                        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = values.front();
    return s;
  }
  const auto quartile = [&values, n](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

inline double Median(std::vector<double> values) {
  return Summarize(std::move(values)).median;
}

}  // namespace gtpl::perf

#endif  // GTPL_BENCH_PERF_SUMMARY_H_
