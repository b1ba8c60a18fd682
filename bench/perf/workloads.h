#ifndef GTPL_BENCH_PERF_WORKLOADS_H_
#define GTPL_BENCH_PERF_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "protocols/config.h"
#include "protocols/metrics.h"

namespace gtpl::perf {

/// One canonical bench_perf workload: a closed-loop simulation config with
/// paper Table 1 think/idle times and a fixed run length.
struct Workload {
  const char* name;
  const char* engine;  // cc registry name (cc::FindEngine)
  int32_t num_servers;
  int32_t num_clients;
  int32_t num_items;
  double read_prob;
  double zipf_theta;
  SimTime latency;
  bool charged_abort_notice;
  /// Runs on the per-shard parallel engine (RunParallelSimulation), on one
  /// thread unless a config says otherwise.
  bool parallel;
  /// Measured committed transactions of one full run (warmup is 10% more).
  int64_t txns;
};

const std::vector<Workload>& Workloads();

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Hardware threads available to this process (at least 1).
int32_t HostThreads();

/// Threads of the parallel engine's thread-count check: its result at this
/// many threads must equal its result at one.
inline int32_t CheckThreads() { return HostThreads() < 4 ? HostThreads() : 4; }

/// Lengths of the timed runs, derived from a workload's full length: an
/// untraced run is a fifth of it, a traced run a quarter of that.
inline int64_t TimedTxns(int64_t full) { return full / 5 > 0 ? full / 5 : 1; }
inline int64_t TracedTxns(int64_t full) {
  return full / 20 > 0 ? full / 20 : 1;
}

/// The seed of the `index`-th timed pair of a run at `seed`: distinct per
/// index, so the median over a run's pairs averages over seeds.
uint64_t PairSeed(uint64_t seed, int64_t index);

/// The simulation config of `workload` at `measured` transactions, with a
/// 10% warmup.
proto::SimConfig MakeConfig(const Workload& workload, uint64_t seed,
                            int64_t measured);

/// Runs `config` on the workload's engine: the parallel engine for parallel
/// workloads (at config.sim_threads threads; results do not depend on it),
/// the registry's serial engine otherwise.
proto::RunResult RunWorkload(const Workload& workload,
                             const proto::SimConfig& config);

/// CPU seconds used so far by every thread of this process. A shared
/// host's time-sharing and steal time do not advance it.
double ProcessCpuSeconds();

/// RunWorkload with its host cost: wall seconds of the call, and CPU seconds
/// of every thread of the process over the same span.
struct TimedRun {
  proto::RunResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
TimedRun TimeWorkload(const Workload& workload,
                      const proto::SimConfig& config);

/// Exact result fingerprint: commits, aborts, response mean and p99,
/// messages, events and end time. Equal digests mean the two runs did the
/// same simulated work.
std::string Digest(const proto::RunResult& result);

}  // namespace gtpl::perf

#endif  // GTPL_BENCH_PERF_WORKLOADS_H_
