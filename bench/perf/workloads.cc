#include "workloads.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "cc/registry.h"
#include "common/check.h"
#include "protocols/engine.h"
#include "protocols/parsim.h"

namespace gtpl::perf {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      // Paper Fig. 2-4 point: core (windows, forward lists, precedence
      // graph) does all the locking; db::LockTable is never called.
      {"paper_g2pl", "g2pl", 1, 50, 25, 0.6, 0.0, 500, false, false, 50'000},
      // Write-heavy zipf 0.99 hot set: writer chains across shards plus
      // cross-shard 2PC, and most attempts abort.
      {"hot_g2pl_4shard", "g2pl", 4, 200, 100, 0.25, 0.99, 100, false, false,
       12'000},
      // The A19 point on the serial engine: db::LockTable, net::Network and
      // the workload generator do the work, core is idle, and its large
      // per-client state is what setup_s and peak_rss_mib catch.
      {"shard8_nowait", "nowait", 8, 1024, 8192, 0.8, 0.0, 100, true, false,
       50'000},
      // The same config on sim/parallel + protocols/parsim, timed on one
      // thread (windows, channels and per-shard queues all run; only the
      // worker hand-off does not); net::Network is idle.
      {"shard8_nowait_parsim", "nowait", 8, 1024, 8192, 0.8, 0.0, 100, true,
       true, 50'000},
  };
  return *workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

int32_t HostThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int32_t>(std::thread::hardware_concurrency()));
}

uint64_t PairSeed(uint64_t seed, int64_t index) {
  // splitmix64 of the pair's position in the seed's sequence.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

proto::SimConfig MakeConfig(const Workload& workload, uint64_t seed,
                            int64_t measured) {
  const cc::EngineInfo* engine = cc::FindEngine(workload.engine);
  GTPL_CHECK(engine != nullptr) << "unregistered engine " << workload.engine;
  proto::SimConfig config;
  config.protocol = engine->protocol;
  config.num_servers = workload.num_servers;
  config.num_clients = workload.num_clients;
  config.latency = workload.latency;
  config.workload.num_items = workload.num_items;
  config.workload.read_prob = workload.read_prob;
  config.workload.zipf_theta = workload.zipf_theta;
  config.instant_abort_notice = !workload.charged_abort_notice;
  config.sim_threads = 1;
  config.measured_txns = measured;
  config.warmup_txns = measured / 10;
  config.seed = seed;
  // Safety horizon: a wedged run ends timed out (and fails its digest check)
  // instead of spinning.
  config.max_sim_time = 60'000'000'000;
  return config;
}

proto::RunResult RunWorkload(const Workload& workload,
                             const proto::SimConfig& config) {
  if (workload.parallel) return proto::RunParallelSimulation(config);
  return proto::RunSimulation(config);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

TimedRun TimeWorkload(const Workload& workload,
                      const proto::SimConfig& config) {
  TimedRun run;
  const double cpu_start = ProcessCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  run.result = RunWorkload(workload, config);
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  run.cpu_s = ProcessCpuSeconds() - cpu_start;
  return run;
}

std::string Digest(const proto::RunResult& result) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "commits=%lld/%lld aborts=%lld/%lld resp_mean=%.17g "
                "resp_p99=%.17g msgs=%llu events=%llu end=%lld%s",
                static_cast<long long>(result.commits),
                static_cast<long long>(result.total_commits),
                static_cast<long long>(result.aborts),
                static_cast<long long>(result.total_aborts),
                result.response.mean(), result.response_hist.Percentile(0.99),
                static_cast<unsigned long long>(result.network.messages),
                static_cast<unsigned long long>(result.events),
                static_cast<long long>(result.end_time),
                result.timed_out ? " TIMED_OUT" : "");
  return buf;
}

}  // namespace gtpl::perf
