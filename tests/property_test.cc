// Property sweep: every protocol, many operating points and seeds, always
// checking the three core invariants — progress (no stall within the
// horizon), serializability of the committed history, and determinism.
// This is the test that repeatedly caught ordering bugs during development;
// keep it broad.

#include <string>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "protocols/config.h"
#include "protocols/engine.h"
#include "protocols/metrics.h"

namespace gtpl::proto {
namespace {

struct SweepPoint {
  Protocol protocol;
  int32_t clients;
  SimTime latency;
  int32_t items;
  double read_prob;
  bool mr1w;
  bool expand;
  int32_t fl_cap;
  bool instant_notice;
  uint64_t seed;
  SimTime jitter = 0;
  double spread = 0.0;
  double zipf = 0.0;
};

std::string PointName(const ::testing::TestParamInfo<SweepPoint>& info) {
  const SweepPoint& p = info.param;
  std::string name = ToString(p.protocol);
  name += "_c" + std::to_string(p.clients);
  name += "_l" + std::to_string(p.latency);
  name += "_i" + std::to_string(p.items);
  name += "_r" + std::to_string(static_cast<int>(p.read_prob * 100));
  if (!p.mr1w) name += "_basic";
  if (p.expand) name += "_ro";
  if (p.fl_cap > 0) name += "_cap" + std::to_string(p.fl_cap);
  if (!p.instant_notice) name += "_lateabort";
  if (p.jitter > 0) name += "_j" + std::to_string(p.jitter);
  if (p.spread > 0) name += "_h";
  if (p.zipf > 0) name += "_z";
  name += "_s" + std::to_string(p.seed);
  std::string sanitized;
  for (char c : name) {
    sanitized += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return sanitized;
}

class InvariantSweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(InvariantSweep, ProgressAndSerializability) {
  const SweepPoint& p = GetParam();
  SimConfig config;
  config.protocol = p.protocol;
  config.num_clients = p.clients;
  config.latency = p.latency;
  config.workload.num_items = p.items;
  config.workload.max_items_per_txn = std::min(5, p.items);
  config.workload.read_prob = p.read_prob;
  config.g2pl.mr1w = p.mr1w;
  config.g2pl.expand_read_groups = p.expand;
  config.g2pl.max_forward_list_length = p.fl_cap;
  config.instant_abort_notice = p.instant_notice;
  config.latency_jitter = p.jitter;
  config.latency_spread = p.spread;
  config.workload.zipf_theta = p.zipf;
  config.measured_txns = 1200;
  config.warmup_txns = 120;
  config.seed = p.seed;
  config.record_history = true;
  config.max_sim_time = 20'000'000'000;
  const RunResult result = RunSimulation(config);
  EXPECT_FALSE(result.timed_out) << "stalled";
  EXPECT_EQ(result.commits, 1200);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

std::vector<SweepPoint> BuildSweep() {
  std::vector<SweepPoint> points;
  // Dense g-2PL coverage: the option space interacts with contention.
  for (uint64_t seed : {11u, 77u, 303u}) {
    for (double pr : {0.0, 0.3, 0.6, 0.9, 1.0}) {
      points.push_back({Protocol::kG2pl, 20, 250, 10, pr, true, false, 0,
                        true, seed});
    }
    points.push_back(
        {Protocol::kG2pl, 15, 100, 8, 0.5, false, false, 0, true, seed});
    points.push_back(
        {Protocol::kG2pl, 15, 100, 8, 0.8, true, true, 0, true, seed});
    points.push_back(
        {Protocol::kG2pl, 15, 50, 8, 0.4, true, false, 3, true, seed});
    points.push_back(
        {Protocol::kG2pl, 15, 250, 8, 0.4, true, false, 0, false, seed});
    points.push_back(
        {Protocol::kG2pl, 30, 500, 12, 0.25, true, false, 0, true, seed});
  }
  // Heterogeneous latency and skew variants (jitter can reorder messages,
  // which exercises the ride-along-data merge paths).
  for (uint64_t seed : {404u, 808u}) {
    points.push_back({Protocol::kG2pl, 15, 200, 10, 0.5, true, false, 0,
                      true, seed, /*jitter=*/80, /*spread=*/0.0});
    points.push_back({Protocol::kG2pl, 15, 200, 10, 0.5, true, false, 0,
                      true, seed, /*jitter=*/0, /*spread=*/0.8});
    points.push_back({Protocol::kG2pl, 15, 200, 10, 0.5, true, false, 0,
                      true, seed, /*jitter=*/60, /*spread=*/0.5});
    points.push_back({Protocol::kG2pl, 20, 300, 25, 0.4, true, false, 0,
                      true, seed, 0, 0.0, /*zipf=*/1.1});
    points.push_back({Protocol::kS2pl, 15, 200, 10, 0.5, true, false, 0,
                      true, seed, /*jitter=*/80, /*spread=*/0.5});
  }
  // Every other registered engine (g-2PL has the dense section above) at
  // two contention levels each, so new engines are swept automatically.
  for (const cc::EngineInfo& info : cc::Engines()) {
    if (info.protocol == Protocol::kG2pl) continue;
    points.push_back(
        {info.protocol, 12, 100, 10, 0.5, true, false, 0, true, 5});
    points.push_back(
        {info.protocol, 25, 400, 10, 0.2, true, false, 0, true, 6});
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(Sweep, InvariantSweep,
                         ::testing::ValuesIn(BuildSweep()), PointName);

}  // namespace
}  // namespace gtpl::proto
