// Streaming-trace and time-series-metrics tests (DESIGN.md §16): the
// streamed JSONL file is byte-identical to the buffered export for every
// engine; the parallel engine's merged trace is byte-identical at any
// thread count (goldened); the metrics series is deterministic and does not
// perturb the run. `ctest -L obs` runs this suite (TSan CI included).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "protocols/config.h"
#include "protocols/engine.h"
#include "protocols/parsim.h"

namespace gtpl::obs {
namespace {

#ifndef GTPL_GOLDEN_DIR
#error "GTPL_GOLDEN_DIR must point at the checked-in golden files"
#endif

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "obs_stream_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void CompareOrUpdateGolden(const std::string& name, const std::string& fresh) {
  const std::string path = std::string(GTPL_GOLDEN_DIR) + "/" + name;
  if (std::getenv("GTPL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with GTPL_UPDATE_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), fresh)
      << "trace drifted from " << path
      << "; if the change is intended, regenerate with GTPL_UPDATE_GOLDEN=1 "
         "and review the diff";
}

proto::SimConfig SmallConfig(proto::Protocol protocol, int32_t servers) {
  proto::SimConfig config;
  config.protocol = protocol;
  config.num_clients = 12;
  config.num_servers = servers;
  config.workload.num_items = 25;
  config.latency = 500;
  config.measured_txns = 120;
  config.warmup_txns = 20;
  config.seed = 7;
  config.max_sim_time = 10'000'000'000;
  return config;
}

/// The decomposable subset the parallel engine accepts (config.cc): lock
/// protocols with requester-victim aborts, classic commit, charged notices.
proto::SimConfig ParsimConfig(proto::Protocol protocol, int32_t servers,
                              int32_t threads) {
  proto::SimConfig config = SmallConfig(protocol, servers);
  config.instant_abort_notice = false;
  config.sim_threads = threads;
  config.obs_trace = true;
  return config;
}

// ---------------------------------------------------------------------------
// Streaming vs buffered byte-identity

TEST(StreamIdentityTest, StreamedFileMatchesBufferedExportAllEngines) {
  // Every registered engine x shard counts, skipping combinations the
  // validator rejects (e.g. single-server-only protocols at servers > 1).
  int covered = 0;
  for (int p = 0; p <= static_cast<int>(proto::Protocol::kWoundWait); ++p) {
    for (int32_t servers : {1, 2, 8}) {
      const auto protocol = static_cast<proto::Protocol>(p);
      proto::SimConfig buffered = SmallConfig(protocol, servers);
      buffered.obs_trace = true;
      if (!buffered.Validate().ok()) continue;
      const proto::RunResult buffered_result = proto::RunSimulation(buffered);
      const std::string expected = ToJsonl(buffered_result.obs_trace);
      ASSERT_FALSE(expected.empty());

      proto::SimConfig streamed = buffered;
      const std::string path = TempPath(
          "engine_" + std::to_string(p) + "_" + std::to_string(servers) +
          ".jsonl");
      streamed.trace_stream_path = path;
      streamed.trace_flush_bytes = 4096;
      const proto::RunResult streamed_result = proto::RunSimulation(streamed);
      // Streamed runs keep the in-memory buffer empty and report the
      // stream's byte count and peak chunk occupancy.
      EXPECT_TRUE(streamed_result.obs_trace.empty());
      EXPECT_EQ(streamed_result.trace_stream_bytes,
                static_cast<int64_t>(expected.size()));
      EXPECT_GT(streamed_result.trace_peak_buffer, 0);
      EXPECT_LE(streamed_result.trace_peak_buffer, 4096);
      EXPECT_EQ(ReadFile(path), expected)
          << "protocol " << proto::ToString(protocol) << " servers "
          << servers;
      ++covered;
    }
  }
  // The grid must actually exercise a meaningful engine spread.
  EXPECT_GE(covered, 10);
}

TEST(StreamIdentityTest, StreamedFileMatchesBufferedExportParsim) {
  for (proto::Protocol protocol :
       {proto::Protocol::kNoWait, proto::Protocol::kWaitDie}) {
    // The threads=1 buffered trace is the identity anchor: every other
    // (threads, streamed?) combination must produce the same bytes.
    const proto::RunResult anchor =
        proto::RunParallelSimulation(ParsimConfig(protocol, 4, 1));
    const std::string expected = ToJsonl(anchor.obs_trace);
    ASSERT_FALSE(expected.empty());
    for (int32_t threads : {1, 2, 4}) {
      proto::SimConfig streamed = ParsimConfig(protocol, 4, threads);
      const std::string path = TempPath(
          "parsim_" + std::to_string(static_cast<int>(protocol)) + "_" +
          std::to_string(threads) + ".jsonl");
      streamed.trace_stream_path = path;
      streamed.trace_flush_bytes = 2048;
      const proto::RunResult result =
          proto::RunParallelSimulation(streamed);
      EXPECT_TRUE(result.obs_trace.empty());
      EXPECT_LE(result.trace_peak_buffer, 2048);
      EXPECT_EQ(ReadFile(path), expected)
          << "protocol " << proto::ToString(protocol) << " threads "
          << threads;
    }
  }
}

TEST(StreamIdentityTest, TinyWatermarkStillByteIdentical) {
  // s2pl at 2 servers, and g2pl at 4 servers for its long fl-array lines.
  for (const auto& [protocol, servers] :
       {std::pair{proto::Protocol::kS2pl, 2},
        std::pair{proto::Protocol::kG2pl, 4}}) {
    proto::SimConfig buffered = SmallConfig(protocol, servers);
    buffered.obs_trace = true;
    const std::string expected =
        ToJsonl(proto::RunSimulation(buffered).obs_trace);
    size_t longest_line = 0;
    std::istringstream lines(expected);
    for (std::string line; std::getline(lines, line);) {
      longest_line = std::max(longest_line, line.size() + 1);
    }

    proto::SimConfig streamed = buffered;
    const std::string path = TempPath(
        "tiny_watermark_" + std::to_string(servers) + ".jsonl");
    streamed.trace_stream_path = path;
    streamed.trace_flush_bytes = 1;  // flush every event
    const proto::RunResult result = proto::RunSimulation(streamed);
    EXPECT_EQ(ReadFile(path), expected) << proto::ToString(protocol);
    // Watermark 1 forces a flush before every append, so the peak is the
    // longest serialized line (the documented max(watermark, longest line)
    // bound).
    EXPECT_EQ(result.trace_peak_buffer,
              static_cast<int64_t>(longest_line))
        << proto::ToString(protocol);
  }
}

TEST(StreamFailureTest, FailedWritesAreReported) {
  // /dev/full accepts the open and fails every write.
  proto::SimConfig serial = SmallConfig(proto::Protocol::kS2pl, 2);
  serial.obs_trace = true;
  serial.trace_stream_path = "/dev/full";
  EXPECT_TRUE(proto::RunSimulation(serial).trace_write_failed);

  proto::SimConfig parallel = ParsimConfig(proto::Protocol::kNoWait, 4, 2);
  parallel.trace_stream_path = "/dev/full";
  EXPECT_TRUE(proto::RunParallelSimulation(parallel).trace_write_failed);

  // A writable destination leaves the flag clear.
  serial.trace_stream_path = TempPath("writable.jsonl");
  EXPECT_FALSE(proto::RunSimulation(serial).trace_write_failed);
  parallel.trace_stream_path = TempPath("writable_parsim.jsonl");
  EXPECT_FALSE(proto::RunParallelSimulation(parallel).trace_write_failed);
}

// ---------------------------------------------------------------------------
// Parallel-trace merge determinism

TEST(ParsimTraceTest, ByteIdenticalAtAnyThreadCount) {
  const proto::RunResult base =
      proto::RunParallelSimulation(ParsimConfig(proto::Protocol::kWaitDie, 8, 1));
  const std::string expected = ToJsonl(base.obs_trace);
  for (int32_t threads : {2, 4}) {
    const proto::RunResult result = proto::RunParallelSimulation(
        ParsimConfig(proto::Protocol::kWaitDie, 8, threads));
    EXPECT_EQ(ToJsonl(result.obs_trace), expected) << threads << " threads";
  }
}

TEST(ParsimTraceTest, MergedTraceRoundTripsThroughStrictReader) {
  const proto::RunResult result = proto::RunParallelSimulation(
      ParsimConfig(proto::Protocol::kNoWait, 4, 2));
  const std::string jsonl = ToJsonl(result.obs_trace);
  std::istringstream in(jsonl);
  std::vector<TraceEvent> parsed;
  std::string error;
  // The merger re-stamps a dense global seq, so the strict (time, seq)
  // ordering check of ReadJsonl accepts the merged stream.
  ASSERT_TRUE(ReadJsonl(in, &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), result.obs_trace.size());
  EXPECT_EQ(parsed, result.obs_trace);
}

TEST(ParsimTraceTest, GoldenTrace) {
  proto::SimConfig config = ParsimConfig(proto::Protocol::kNoWait, 4, 2);
  config.measured_txns = 60;
  config.warmup_txns = 10;
  config.obs_trace = true;
  const proto::RunResult result = proto::RunParallelSimulation(config);
  CompareOrUpdateGolden("parsim_trace.golden", ToJsonl(result.obs_trace));
}

// ---------------------------------------------------------------------------
// TraceMerger unit behavior

TEST(TraceMergerTest, OrdersByTimeLpSeqAndRestampsGlobalSeq) {
  SimTime clock0 = 0;
  SimTime clock1 = 0;
  Tracer lp0;
  Tracer lp1;
  lp0.AttachClock([&clock0] { return clock0; });
  lp1.AttachClock([&clock1] { return clock1; });
  lp0.Enable();
  lp1.Enable();
  TraceMerger merger({&lp0, &lp1});

  auto emit = [](Tracer& tracer, TxnId txn) {
    TraceEvent event;
    event.kind = EventKind::kTxnBegin;
    event.txn = txn;
    tracer.Emit(std::move(event));
  };
  clock0 = 5;
  emit(lp0, 10);
  clock1 = 5;
  emit(lp1, 20);
  clock1 = 7;
  emit(lp1, 21);
  clock0 = 10;
  emit(lp0, 11);

  merger.Flush(8);  // drains everything below time 8
  std::vector<TraceEvent> merged = merger.Take();
  ASSERT_EQ(merged.size(), 3u);
  // Same-time events order by LP index; the global seq is dense.
  EXPECT_EQ(merged[0].txn, 10);
  EXPECT_EQ(merged[1].txn, 20);
  EXPECT_EQ(merged[2].txn, 21);
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].seq, i);
  }

  merger.FlushAll();
  merged = merger.Take();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].txn, 11);
  EXPECT_EQ(merged[0].seq, 3u);
  EXPECT_EQ(merger.merged_count(), 4u);
}

// ---------------------------------------------------------------------------
// Time-series metrics

TEST(MetricsSeriesTest, DeterministicAcrossRunsAndThreads) {
  proto::SimConfig config = ParsimConfig(proto::Protocol::kNoWait, 4, 1);
  config.metrics_interval = 5000;
  const proto::RunResult base = proto::RunParallelSimulation(config);
  ASSERT_FALSE(base.metrics.empty());
  const std::string expected =
      MetricsToCsv(base.metric_names, base.metrics);
  for (int32_t threads : {2, 4}) {
    proto::SimConfig threaded = config;
    threaded.sim_threads = threads;
    const proto::RunResult result = proto::RunParallelSimulation(threaded);
    EXPECT_EQ(MetricsToCsv(result.metric_names, result.metrics), expected)
        << threads << " threads";
  }
}

TEST(MetricsSeriesTest, SamplingDoesNotPerturbTheRun) {
  proto::SimConfig config = SmallConfig(proto::Protocol::kS2pl, 2);
  const proto::RunResult plain = proto::RunSimulation(config);
  proto::SimConfig sampled_config = config;
  sampled_config.metrics_interval = 777;
  const proto::RunResult sampled = proto::RunSimulation(sampled_config);
  // Identical protocol outcome: the sampler schedules no messages, draws no
  // random numbers, and its own event-executions are subtracted.
  EXPECT_EQ(sampled.commits, plain.commits);
  EXPECT_EQ(sampled.aborts, plain.aborts);
  EXPECT_EQ(sampled.end_time, plain.end_time);
  EXPECT_EQ(sampled.events, plain.events);
  EXPECT_EQ(sampled.response.mean(), plain.response.mean());
  EXPECT_FALSE(sampled.metrics.empty());
  EXPECT_TRUE(plain.metrics.empty());
}

TEST(MetricsSeriesTest, SerialSeriesShapes) {
  proto::SimConfig config = SmallConfig(proto::Protocol::kS2pl, 2);
  config.metrics_interval = 5000;
  const proto::RunResult result = proto::RunSimulation(config);
  ASSERT_FALSE(result.metrics.empty());
  auto has = [&result](const std::string& name) {
    for (const std::string& n : result.metric_names) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("active_txns"));
  EXPECT_TRUE(has("commits_total"));
  EXPECT_TRUE(has("aborts_total"));
  EXPECT_TRUE(has("nic_backlog"));
  EXPECT_TRUE(has("inflight_2pc"));
  EXPECT_TRUE(has("locks_held"));
  EXPECT_TRUE(has("lock_waiters"));
  // Rows are stamped at interval multiples, nondecreasing, and counters
  // never go backwards.
  SimTime prev_time = 0;
  int64_t prev_commits = 0;
  for (const MetricRow& row : result.metrics) {
    EXPECT_EQ(row.time % 5000, 0);
    EXPECT_GE(row.time, prev_time);
    prev_time = row.time;
    if (result.metric_names[static_cast<size_t>(row.series)] ==
            "commits_total" &&
        row.shard == -1) {
      EXPECT_GE(row.value, prev_commits);
      prev_commits = row.value;
    }
  }
}

TEST(MetricsSeriesTest, InflightTwoPcCountsCertificationCommits) {
  // inflight_2pc counts runs whose cross-server vote round is open, so
  // OCC's validate round must show up exactly like a lock engine's
  // prepare round.
  for (proto::Protocol protocol :
       {proto::Protocol::kOcc, proto::Protocol::kO2pl,
        proto::Protocol::kS2pl}) {
    proto::SimConfig config = SmallConfig(protocol, 4);
    config.metrics_interval = 50;
    const proto::RunResult result = proto::RunSimulation(config);
    int64_t nonzero = 0;
    for (const MetricRow& row : result.metrics) {
      if (result.metric_names[static_cast<size_t>(row.series)] ==
              "inflight_2pc" &&
          row.value > 0) {
        ++nonzero;
      }
    }
    EXPECT_GT(nonzero, 0) << cc::EngineFor(protocol).name;
  }
}

TEST(MetricsSeriesTest, CsvRoundTripAndJsonlShape) {
  MetricsRegistry registry;
  int64_t value = 3;
  registry.Register("locks_held", 0, [&value] { return value; });
  registry.Register("windows", -1, [] { return int64_t{7}; });
  registry.SampleAll(1000);
  value = 5;
  registry.SampleAll(2000);
  const std::vector<std::string> names = registry.names();
  const std::vector<MetricRow> rows = registry.rows();
  const std::string csv = MetricsToCsv(names, rows);
  EXPECT_EQ(csv,
            "time,shard,metric,value\n"
            "1000,0,locks_held,3\n"
            "1000,-1,windows,7\n"
            "2000,0,locks_held,5\n"
            "2000,-1,windows,7\n");
  std::istringstream in(csv);
  std::vector<MetricSample> samples;
  std::string error;
  ASSERT_TRUE(ReadMetricsCsv(in, &samples, &error)) << error;
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "locks_held");
  EXPECT_EQ(samples[0].shard, 0);
  EXPECT_EQ(samples[0].value, 3);
  EXPECT_EQ(samples[3].time, 2000);

  std::ostringstream jsonl;
  WriteMetricsJsonl(names, rows, jsonl);
  EXPECT_EQ(jsonl.str().substr(0, 46),
            "{\"t\":1000,\"shard\":0,\"metric\":\"locks_held\",\"v\":");
}

TEST(MetricsSeriesTest, CsvReaderRejectsMalformedFiles) {
  std::vector<MetricSample> samples;
  std::string error;

  std::istringstream bad_header("when,shard,metric,value\n");
  EXPECT_FALSE(ReadMetricsCsv(bad_header, &samples, &error));
  EXPECT_NE(error.find("header"), std::string::npos);

  std::istringstream bad_row("time,shard,metric,value\n1000,0,locks_held\n");
  EXPECT_FALSE(ReadMetricsCsv(bad_row, &samples, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);

  std::istringstream bad_value(
      "time,shard,metric,value\n1000,0,locks_held,abc\n");
  EXPECT_FALSE(ReadMetricsCsv(bad_value, &samples, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace gtpl::obs
