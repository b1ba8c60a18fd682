// Golden regression tests: tiny deterministic grids of the latency bench
// (Figures 2-4) and the sharding bench, rendered to fixed-precision metric
// tables and diffed against checked-in expectations. Catches silent
// protocol drift — a change that flips any metric of any grid point fails
// here even if every invariant still holds. trace_digest.golden goes one
// level finer: the JSONL trace and metrics-CSV digests of the serial
// engines and of the parallel engine, so a same-bytes refactor is checked
// event for event.
//
// To regenerate after an *intended* protocol change:
//   GTPL_UPDATE_GOLDEN=1 ./build/tests/golden_test
// then review the diff of tests/golden/*.golden like any other code change.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "protocols/config.h"
#include "protocols/engine.h"
#include "protocols/parsim.h"

namespace gtpl::harness {
namespace {

#ifndef GTPL_GOLDEN_DIR
#error "GTPL_GOLDEN_DIR must point at the checked-in golden files"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(GTPL_GOLDEN_DIR) + "/" + name;
}

void CompareOrUpdate(const std::string& name, const std::string& fresh) {
  const std::string path = GoldenPath(name);
  if (std::getenv("GTPL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with GTPL_UPDATE_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), fresh)
      << "metrics drifted from " << path
      << "; if the change is intended, regenerate with GTPL_UPDATE_GOLDEN=1 "
         "and review the diff";
}

proto::SimConfig TinyBaseConfig() {
  proto::SimConfig config;
  config.num_clients = 20;
  config.workload.num_items = 25;
  config.measured_txns = 300;
  config.warmup_txns = 30;
  config.seed = 42;
  config.max_sim_time = 10'000'000'000;
  return config;
}

TEST(GoldenTest, Fig24LatencyGrid) {
  // Shrunk version of bench_fig2_4_latency's grid (same sweep structure and
  // seed derivation as the bench: RunSweep with point-seed mixing).
  std::vector<proto::SimConfig> points;
  struct Row {
    double pr;
    SimTime latency;
    proto::Protocol protocol;
  };
  std::vector<Row> rows;
  for (double pr : {0.0, 0.6}) {
    for (SimTime latency : {1, 250}) {
      for (proto::Protocol protocol :
           {proto::Protocol::kS2pl, proto::Protocol::kG2pl}) {
        proto::SimConfig config = TinyBaseConfig();
        config.workload.read_prob = pr;
        config.latency = latency;
        config.protocol = protocol;
        points.push_back(config);
        rows.push_back({pr, latency, protocol});
      }
    }
  }
  const SweepResult sweep = RunSweep(points, /*runs=*/2, /*jobs=*/2);
  Table table({"pr", "latency", "protocol", "resp", "abort%", "msgs/commit",
               "fl_len", "lockw", "prop", "think", "resp_p50", "resp_p99"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const PointResult& point = sweep.points[i];
    EXPECT_FALSE(point.any_timed_out);
    // The five span phases sum to the mean response of each replication, so
    // the averaged phases must sum to the averaged response too.
    EXPECT_NEAR(point.mean_lock_wait + point.mean_propagation +
                    point.mean_queueing + point.mean_execution +
                    point.mean_commit_phase,
                point.response.mean, 1e-6 * point.response.mean + 1e-6);
    table.AddRow({Fmt(rows[i].pr, 1), std::to_string(rows[i].latency),
                  proto::ToString(rows[i].protocol),
                  Fmt(point.response.mean, 3), Fmt(point.abort_pct.mean, 3),
                  Fmt(point.mean_messages_per_commit, 3),
                  Fmt(point.fl_length.mean, 3), Fmt(point.mean_lock_wait, 3),
                  Fmt(point.mean_propagation, 3), Fmt(point.mean_execution, 3),
                  Fmt(point.response_p50, 3), Fmt(point.response_p99, 3)});
  }
  CompareOrUpdate("fig2_4_latency.golden", table.ToCsv());
}

TEST(GoldenTest, BandwidthGrid) {
  // Shrunk version of bench_ext_bandwidth's grid: bandwidth x latency with
  // NIC queues on (bandwidth 0 = the infinite-bandwidth reference row).
  std::vector<proto::SimConfig> points;
  struct Row {
    proto::Protocol protocol;
    double bandwidth;
    SimTime latency;
  };
  std::vector<Row> rows;
  for (proto::Protocol protocol :
       {proto::Protocol::kS2pl, proto::Protocol::kG2pl}) {
    for (double bandwidth : {0.0, 2.0, 0.5}) {
      for (SimTime latency : {1, 100}) {
        proto::SimConfig config = TinyBaseConfig();
        config.protocol = protocol;
        config.latency = latency;
        config.link_bandwidth = bandwidth;
        config.nic_queue = bandwidth > 0.0;
        points.push_back(config);
        rows.push_back({protocol, bandwidth, latency});
      }
    }
  }
  const SweepResult sweep = RunSweep(points, /*runs=*/2, /*jobs=*/2);
  Table table({"protocol", "bw", "latency", "resp", "abort%", "msgs/commit",
               "qdelay", "qdelay_p99", "util%"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const PointResult& point = sweep.points[i];
    EXPECT_FALSE(point.any_timed_out);
    table.AddRow({proto::ToString(rows[i].protocol), Fmt(rows[i].bandwidth, 1),
                  std::to_string(rows[i].latency), Fmt(point.response.mean, 3),
                  Fmt(point.abort_pct.mean, 3),
                  Fmt(point.mean_messages_per_commit, 3),
                  Fmt(point.mean_queue_delay, 3),
                  Fmt(point.queue_delay_p99, 3),
                  Fmt(100 * point.mean_link_utilization, 3)});
  }
  CompareOrUpdate("bandwidth.golden", table.ToCsv());
}

TEST(GoldenTest, ShardingGrid) {
  // Shrunk version of bench_ext_sharding's grid.
  std::vector<proto::SimConfig> points;
  struct Row {
    proto::Protocol protocol;
    int32_t servers;
  };
  std::vector<Row> rows;
  for (proto::Protocol protocol :
       {proto::Protocol::kS2pl, proto::Protocol::kG2pl}) {
    for (int32_t servers : {1, 2, 4}) {
      proto::SimConfig config = TinyBaseConfig();
      config.protocol = protocol;
      config.latency = 100;
      config.num_servers = servers;
      points.push_back(config);
      rows.push_back({protocol, servers});
    }
  }
  const SweepResult sweep = RunSweep(points, /*runs=*/2, /*jobs=*/2);
  Table table({"protocol", "servers", "resp", "abort%", "xserver%", "parts",
               "msgs/commit", "lockw", "commitph", "resp_p99"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const PointResult& point = sweep.points[i];
    EXPECT_FALSE(point.any_timed_out);
    EXPECT_NEAR(point.mean_lock_wait + point.mean_propagation +
                    point.mean_queueing + point.mean_execution +
                    point.mean_commit_phase,
                point.response.mean, 1e-6 * point.response.mean + 1e-6);
    table.AddRow({proto::ToString(rows[i].protocol),
                  std::to_string(rows[i].servers), Fmt(point.response.mean, 3),
                  Fmt(point.abort_pct.mean, 3), Fmt(point.cross_server_pct, 3),
                  Fmt(point.mean_commit_participants, 3),
                  Fmt(point.mean_messages_per_commit, 3),
                  Fmt(point.mean_lock_wait, 3),
                  Fmt(point.mean_commit_phase, 3),
                  Fmt(point.response_p99, 3)});
  }
  CompareOrUpdate("sharding.golden", table.ToCsv());
}

TEST(GoldenTest, AdaptiveWindowGrid) {
  // Shrunk version of bench_ext_adaptive's grid: Zipf skew x cap in the
  // write-heavy aged regime, static caps against the adaptive controller
  // (cap -1), single-server and 2-way sharded adaptive points. Pins both
  // the engine metrics and the controller telemetry.
  std::vector<proto::SimConfig> points;
  struct Row {
    double zipf;
    int32_t cap;
    int32_t servers;
  };
  std::vector<Row> rows;
  for (double zipf : {0.0, 1.1}) {
    for (int32_t cap : {1, 3, 0, -1}) {
      for (int32_t servers : {1, 2}) {
        if (cap != -1 && servers != 1) continue;  // shard only the adaptive rows
        proto::SimConfig config = TinyBaseConfig();
        config.protocol = proto::Protocol::kG2pl;
        config.latency = 100;
        config.num_servers = servers;
        config.workload.read_prob = 0.2;
        config.workload.zipf_theta = zipf;
        config.g2pl.aging_threshold = 2;
        if (cap == -1) {
          config.g2pl.adaptive_window = true;
        } else {
          config.g2pl.max_forward_list_length = cap;
        }
        points.push_back(config);
        rows.push_back({zipf, cap, servers});
      }
    }
  }
  const SweepResult sweep = RunSweep(points, /*runs=*/2, /*jobs=*/2);
  Table table({"zipf", "cap", "servers", "resp", "abort%", "fl_len", "eff_cap",
               "final_cap", "grows", "shrinks"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const PointResult& point = sweep.points[i];
    EXPECT_FALSE(point.any_timed_out);
    table.AddRow({Fmt(rows[i].zipf, 1),
                  rows[i].cap == -1 ? "adapt" : std::to_string(rows[i].cap),
                  std::to_string(rows[i].servers), Fmt(point.response.mean, 3),
                  Fmt(point.abort_pct.mean, 3), Fmt(point.fl_length.mean, 3),
                  Fmt(point.mean_effective_cap, 3),
                  Fmt(point.final_effective_cap, 3),
                  Fmt(point.mean_cap_increases, 1),
                  Fmt(point.mean_cap_decreases, 1)});
  }
  CompareOrUpdate("adaptive.golden", table.ToCsv());
}

// The cc-engine grid: `protocols` over latency x server count, rendered
// with the same columns for every engine and compared against `golden`.
void CheckCcGrid(const std::vector<proto::Protocol>& protocols,
                 const std::string& golden) {
  std::vector<proto::SimConfig> points;
  struct Row {
    proto::Protocol protocol;
    SimTime latency;
    int32_t servers;
  };
  std::vector<Row> rows;
  for (proto::Protocol protocol : protocols) {
    for (SimTime latency : {1, 250}) {
      for (int32_t servers : {1, 2}) {
        proto::SimConfig config = TinyBaseConfig();
        config.protocol = protocol;
        config.latency = latency;
        config.num_servers = servers;
        points.push_back(config);
        rows.push_back({protocol, latency, servers});
      }
    }
  }
  const SweepResult sweep = RunSweep(points, /*runs=*/2, /*jobs=*/2);
  Table table({"cc", "latency", "servers", "resp", "abort%", "msgs/commit",
               "lockw", "prop", "commitph", "resp_p99"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const PointResult& point = sweep.points[i];
    EXPECT_FALSE(point.any_timed_out);
    EXPECT_NEAR(point.mean_lock_wait + point.mean_propagation +
                    point.mean_queueing + point.mean_execution +
                    point.mean_commit_phase,
                point.response.mean, 1e-6 * point.response.mean + 1e-6);
    table.AddRow({cc::Engines().For(rows[i].protocol).name,
                  std::to_string(rows[i].latency),
                  std::to_string(rows[i].servers), Fmt(point.response.mean, 3),
                  Fmt(point.abort_pct.mean, 3),
                  Fmt(point.mean_messages_per_commit, 3),
                  Fmt(point.mean_lock_wait, 3), Fmt(point.mean_propagation, 3),
                  Fmt(point.mean_commit_phase, 3),
                  Fmt(point.response_p99, 3)});
  }
  CompareOrUpdate(golden, table.ToCsv());
}

TEST(GoldenTest, CcZooGrid) {
  // Shrunk version of bench_ext_cczoo's grid: the four new cc engines over
  // latency x server count. Pins the initial behavior of each engine the
  // same way fig2_4_latency.golden pins the legacy protocols — any later
  // change to a policy or to the shared lock-engine path that shifts a
  // metric of any point fails here.
  CheckCcGrid({proto::Protocol::kNoWait, proto::Protocol::kWaitDie,
               proto::Protocol::kOcc, proto::Protocol::kOrdered},
              "cczoo.golden");
}

TEST(GoldenTest, CachingGrid) {
  // The client-caching engines on the same grid. CBL is its own engine;
  // O2PL is OCC plus a client data cache, whose metrics at the default
  // transport must not move with the certifier it shares. c-2PL is pinned
  // against s-2PL event for event by caching_test.
  CheckCcGrid({proto::Protocol::kCbl, proto::Protocol::kO2pl},
              "caching.golden");
}

TEST(GoldenTest, CommitPathGrid) {
  // Shrunk version of bench_ext_commit's grid (A17): every commit-path
  // variant over latency x read mix at 4 servers, plus the coordinator
  // ablation point (fast server mesh) where kCoord actually moves the
  // coordinator. Pins the cross-server share, the per-round sub-spans, the
  // p50 cross-commit span, the flight counts, and the variant telemetry —
  // any change to the 2PC machinery that shifts one metric of one variant
  // fails here even with every invariant intact.
  std::vector<proto::SimConfig> points;
  struct Row {
    proto::CommitPath path;
    SimTime latency;
    SimTime server_latency;
    double read_prob;
  };
  std::vector<Row> rows;
  for (const proto::CommitPathInfo& info : proto::CommitPaths()) {
    for (SimTime latency : {100, 400}) {
      for (double read_prob : {0.2, 0.8}) {
        proto::SimConfig config = TinyBaseConfig();
        config.protocol = proto::Protocol::kS2pl;
        config.num_servers = 4;
        config.latency = latency;
        config.commit_path = info.path;
        config.workload.read_prob = read_prob;
        points.push_back(config);
        rows.push_back({info.path, latency, -1, read_prob});
      }
    }
    // The fast-mesh point: only classic vs coord differ here, but running
    // all four keeps the table uniform and pins that early/fastpath ignore
    // server_latency for their own flights.
    proto::SimConfig mesh = TinyBaseConfig();
    mesh.protocol = proto::Protocol::kS2pl;
    mesh.num_servers = 4;
    mesh.latency = 200;
    mesh.server_latency = 20;
    mesh.commit_path = info.path;
    mesh.workload.read_prob = 0.5;
    points.push_back(mesh);
    rows.push_back({info.path, 200, 20, 0.5});
  }
  const SweepResult sweep = RunSweep(points, /*runs=*/2, /*jobs=*/2);
  Table table({"commit", "latency", "srvlat", "readp", "resp", "abort%",
               "xserver%", "prep", "vote", "xp50", "flights", "fast%",
               "coord%", "fb%"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const PointResult& point = sweep.points[i];
    EXPECT_FALSE(point.any_timed_out);
    EXPECT_NEAR(point.mean_lock_wait + point.mean_propagation +
                    point.mean_queueing + point.mean_execution +
                    point.mean_commit_phase,
                point.response.mean, 1e-6 * point.response.mean + 1e-6);
    // The sub-spans never exceed the commit phase they decompose.
    EXPECT_LE(point.mean_commit_prepare + point.mean_commit_vote,
              point.mean_commit_phase + 1e-9);
    table.AddRow({proto::ToString(rows[i].path),
                  std::to_string(rows[i].latency),
                  std::to_string(rows[i].server_latency),
                  Fmt(rows[i].read_prob, 1), Fmt(point.response.mean, 3),
                  Fmt(point.abort_pct.mean, 3),
                  Fmt(point.cross_server_pct, 3),
                  Fmt(point.mean_commit_prepare, 3),
                  Fmt(point.mean_commit_vote, 3), Fmt(point.xcommit_p50, 3),
                  Fmt(point.mean_commit_flights, 3),
                  Fmt(point.fastpath_pct, 3), Fmt(point.coord_remote_pct, 3),
                  Fmt(point.fallback_pct, 3)});
  }
  CompareOrUpdate("commit.golden", table.ToCsv());
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(GoldenTest, TraceDigests) {
  // Byte-level pin of every engine: per config, the trace event count and
  // FNV-1a-64 of its JSONL export, plus the digest of the time-series
  // metrics CSV. The metric grids above pin averages; this pins every
  // message, vote and release, so a refactor that claims "same bytes" is
  // checked event for event. Serial rows: every registered engine at 1 and
  // 4 servers (classic commit); s2pl, ordered and occ on each non-classic
  // commit path over a fast server mesh; sticky leases on s2pl and on
  // ordered with the coord path; woundwait on a NIC-queued finite-bandwidth
  // link. Parallel rows run RunParallelSimulation on one thread (its bytes
  // are the same at any thread count): nowait and waitdie at 1, 2 and 8
  // shards.
  struct Row {
    std::string name;
    proto::SimConfig config;
    bool metrics = true;
    bool parallel = false;
  };
  const auto base = [](proto::Protocol protocol, int32_t servers) {
    proto::SimConfig config = TinyBaseConfig();
    config.protocol = protocol;
    config.num_servers = servers;
    config.num_clients = 16;
    config.workload.num_items = 40;
    config.latency = 100;
    config.measured_txns = 150;
    config.warmup_txns = 15;
    config.seed = 7;
    config.obs_trace = true;
    return config;
  };
  std::vector<Row> rows;
  for (const cc::EngineInfo& engine : cc::Engines()) {
    const bool occ = engine.protocol == proto::Protocol::kOcc ||
                     engine.protocol == proto::Protocol::kO2pl;
    for (int32_t servers : {1, 4}) {
      rows.push_back({std::string(engine.name) + "/servers=" +
                          std::to_string(servers),
                      base(engine.protocol, servers), !occ});
    }
  }
  for (proto::Protocol protocol :
       {proto::Protocol::kS2pl, proto::Protocol::kOrdered,
        proto::Protocol::kOcc}) {
    for (proto::CommitPath path :
         {proto::CommitPath::kEarly, proto::CommitPath::kFastPath,
          proto::CommitPath::kCoord}) {
      proto::SimConfig config = base(protocol, 4);
      config.commit_path = path;
      config.server_latency = 10;
      rows.push_back({cc::Engines().For(protocol).name + std::string("/commit=") +
                          proto::ToString(path) + "/srvlat=10",
                      config, protocol != proto::Protocol::kOcc});
    }
  }
  for (proto::Protocol protocol :
       {proto::Protocol::kS2pl, proto::Protocol::kOrdered}) {
    proto::SimConfig config = base(protocol, 4);
    config.lease.mode = lease::LeaseMode::kSticky;
    std::string name = cc::Engines().For(protocol).name +
                       std::string("/servers=4/lease=sticky");
    if (protocol == proto::Protocol::kOrdered) {
      config.commit_path = proto::CommitPath::kCoord;
      config.server_latency = 10;
      name += "/commit=coord/srvlat=10";
    }
    rows.push_back({name, config, true});
  }
  {
    proto::SimConfig config = base(proto::Protocol::kWoundWait, 4);
    config.link_bandwidth = 0.5;
    config.nic_queue = true;
    rows.push_back({"woundwait/servers=4/bw=0.5/nic-queue", config, true});
  }
  const auto parallel = [&base](proto::Protocol protocol, int32_t shards) {
    proto::SimConfig config = base(protocol, shards);
    config.instant_abort_notice = false;
    config.sim_threads = 1;
    return config;
  };
  for (proto::Protocol protocol :
       {proto::Protocol::kNoWait, proto::Protocol::kWaitDie}) {
    for (int32_t shards : {1, 2, 8}) {
      rows.push_back({std::string("parsim/") + cc::Engines().For(protocol).name +
                          "/shards=" + std::to_string(shards),
                      parallel(protocol, shards), true, true});
    }
  }
  std::string fresh = "row,events,trace_fnv1a64,metrics_fnv1a64\n";
  for (Row& row : rows) {
    if (row.metrics) row.config.metrics_interval = 500;
    const proto::RunResult result =
        row.parallel ? proto::RunParallelSimulation(row.config)
                     : proto::RunSimulation(row.config);
    EXPECT_FALSE(result.timed_out) << row.name;
    const std::string metrics =
        row.metrics ? Hex64(Fnv1a64(obs::MetricsToCsv(result.metric_names,
                                                      result.metrics)))
                    : "-";
    fresh += row.name + "," + std::to_string(result.obs_trace.size()) + "," +
             Hex64(Fnv1a64(obs::ToJsonl(result.obs_trace))) + "," + metrics +
             "\n";
  }
  CompareOrUpdate("trace_digest.golden", fresh);
}

}  // namespace
}  // namespace gtpl::harness
