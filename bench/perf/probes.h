#ifndef GTPL_BENCH_PERF_PROBES_H_
#define GTPL_BENCH_PERF_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace gtpl::perf {

struct LayerMetric {
  const char* name;
  const char* unit;
  double value;
};

/// Per-layer metrics of one workload, in BENCHMARK.json order, plus the
/// checks that failed while measuring them.
struct LayerReport {
  std::vector<LayerMetric> metrics;
  std::vector<std::string> failures;
  int64_t runs = 0;  // simulation runs the probe made
};

/// The layer-probe phase. One traced run of `measured` transactions gives
/// exact call counts and call inputs; those calls are then re-issued
/// against each layer's public functions under the benchmark's own timers,
/// in rounds (each with a fresh untraced and a fresh traced run for the
/// in-situ denominators) until `seconds` have passed and at least
/// `min_rounds` ran. Costs are medians over the rounds.
LayerReport ProbeLayers(const Workload& workload, uint64_t seed,
                        int64_t measured, double seconds, int min_rounds);

}  // namespace gtpl::perf

#endif  // GTPL_BENCH_PERF_PROBES_H_
