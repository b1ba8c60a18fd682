// Host memory is flat in run length (DESIGN.md §6): a run's peak heap grows
// with clients, items and in-flight transactions, never with the number of
// transactions it commits. Each case runs one engine (a serial engine from
// the registry, or the parallel engine) at two run lengths and bounds the
// growth of the peak live heap between them.
//
// The binary replaces the global operator new/delete and counts live bytes
// with malloc_usable_size, so it measures exactly what the engine holds on
// the heap, independent of the allocator's page caching.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "protocols/config.h"
#include "protocols/engine.h"
#include "protocols/parsim.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* CountedAlloc(std::size_t size) {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  const auto bytes = static_cast<int64_t>(malloc_usable_size(ptr));
  const int64_t live = g_live_bytes.fetch_add(bytes) + bytes;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return ptr;
}

// Out of line, so the compiler never pairs this free() with the malloc() of
// CountedAlloc across an operator new/delete boundary (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* ptr) {
  if (ptr == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(ptr)));
  std::free(ptr);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* ptr) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { CountedFree(ptr); }

namespace gtpl::proto {
namespace {

/// Growth of the peak live heap from the shorter to the longer run allowed
/// per case. The state a run legitimately holds (client caches, lock and
/// window queues, in-flight transactions) warms up within the shorter run;
/// what is left is noise of a few tens of KiB. A per-transaction record
/// that outlives its transaction costs far more: one set of aborted or
/// drained ids grows an engine's peak by 0.7-2.4 MB over the same span.
constexpr int64_t kMaxGrowthBytes = 160 * 1024;

constexpr int64_t kShortRun = 5'000;
constexpr int64_t kLongRun = 20'000;

struct MemoryCase {
  std::string name;
  SimConfig config;
  /// Runs RunParallelSimulation instead of the registry's serial engine.
  bool parallel = false;
};

void PrintTo(const MemoryCase& c, std::ostream* os) { *os << c.name; }

SimConfig Base(Protocol protocol, int32_t servers) {
  SimConfig config;
  config.protocol = protocol;
  config.num_servers = servers;
  config.warmup_txns = 500;
  return config;
}

MemoryCase PaperG2pl() {
  // bench/perf's paper_g2pl point.
  SimConfig config = Base(Protocol::kG2pl, 1);
  config.workload.num_items = 25;
  config.workload.read_prob = 0.6;
  return {"g2pl_paper", config};
}

MemoryCase HotG2pl4Shard() {
  // bench/perf's hot_g2pl_4shard point.
  SimConfig config = Base(Protocol::kG2pl, 4);
  config.num_clients = 200;
  config.latency = 100;
  config.workload.num_items = 100;
  config.workload.read_prob = 0.25;
  config.workload.zipf_theta = 0.99;
  return {"g2pl_hot_4shard", config};
}

MemoryCase NoWait8Shard() {
  SimConfig config = Base(Protocol::kNoWait, 8);
  config.num_clients = 64;
  config.latency = 100;
  config.workload.num_items = 256;
  config.instant_abort_notice = false;
  return {"nowait_8shard", config};
}

MemoryCase NoWait8ShardParallel() {
  MemoryCase c = NoWait8Shard();
  c.name = "nowait_8shard_parsim";
  c.parallel = true;
  return c;
}

MemoryCase Named(const std::string& name, Protocol protocol,
                 int32_t servers) {
  return {name, Base(protocol, servers)};
}

/// Peak live heap bytes, above what was live before, while the case's
/// engine is built and run for `measured` transactions.
int64_t PeakHeapOfRun(const MemoryCase& c, int64_t measured) {
  SimConfig config = c.config;
  config.measured_txns = measured;
  const int64_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  if (c.parallel) {
    const RunResult result = RunParallelSimulation(config);
    EXPECT_FALSE(result.timed_out);
    // The parallel engine stops at the window barrier after the target.
    EXPECT_GE(result.commits, measured);
  } else {
    std::unique_ptr<EngineBase> engine =
        cc::EngineFor(config.protocol).make(config);
    const RunResult result = engine->Run();
    EXPECT_FALSE(result.timed_out);
    EXPECT_EQ(result.commits, measured);
  }
  return g_peak_bytes.load() - before;
}

class MemoryTest : public ::testing::TestWithParam<MemoryCase> {};

TEST_P(MemoryTest, PeakHeapIsFlatInRunLength) {
  ASSERT_TRUE(GetParam().config.Validate().ok());
  const int64_t short_peak = PeakHeapOfRun(GetParam(), kShortRun);
  const int64_t long_peak = PeakHeapOfRun(GetParam(), kLongRun);
  const int64_t growth = long_peak - short_peak;
  std::printf("  %-20s peak %9lld B at %lld txns, %9lld B at %lld (%+lld B)\n",
              GetParam().name.c_str(), static_cast<long long>(short_peak),
              static_cast<long long>(kShortRun),
              static_cast<long long>(long_peak),
              static_cast<long long>(kLongRun),
              static_cast<long long>(growth));
  EXPECT_LE(growth, kMaxGrowthBytes)
      << "peak heap grew " << growth << " bytes from " << kShortRun
      << " to " << kLongRun << " measured transactions";
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MemoryTest,
    ::testing::Values(PaperG2pl(), HotG2pl4Shard(), NoWait8Shard(),
                      NoWait8ShardParallel(), Named("s2pl", Protocol::kS2pl, 1),
                      Named("woundwait_4shard", Protocol::kWoundWait, 4),
                      Named("cbl", Protocol::kCbl, 1),
                      Named("occ", Protocol::kOcc, 1)),
    [](const ::testing::TestParamInfo<MemoryCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace gtpl::proto
