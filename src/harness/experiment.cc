#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "rng/rng.h"

namespace gtpl::harness {
namespace {

/// One replication's raw output plus its wall-clock cost.
struct ReplicaRun {
  proto::RunResult result;
  double seconds = 0.0;
};

ReplicaRun RunOneReplica(proto::SimConfig config, uint64_t seed, int32_t rep,
                         int32_t runs) {
  config.seed = seed;
  if (!config.trace_stream_path.empty() && runs > 1) {
    // Each replication streams to its own file: path.rep<r> (the single-run
    // case keeps the configured path verbatim).
    config.trace_stream_path += ".rep" + std::to_string(rep);
  }
  const auto started = std::chrono::steady_clock::now();
  ReplicaRun run;
  run.result = proto::RunSimulation(config);
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  return run;
}

/// Folds one point's replications, in replication order, into a
/// PointResult. Serial and order-deterministic by construction, so the
/// aggregate is bit-identical however the replications were scheduled.
PointResult AggregateReplications(std::vector<ReplicaRun>& runs) {
  PointResult out;
  std::vector<double> responses;
  std::vector<double> abort_pcts;
  std::vector<double> throughputs;
  std::vector<double> fl_lengths;
  double messages = 0.0;
  double payload = 0.0;
  double expansions = 0.0;
  double mean_cap = 0.0;
  double final_cap = 0.0;
  double cap_increases = 0.0;
  double cap_decreases = 0.0;
  double cross_pct = 0.0;
  double participants = 0.0;
  double queue_delay = 0.0;
  double queue_p99 = 0.0;
  double utilization = 0.0;
  double lock_wait = 0.0;
  double propagation = 0.0;
  double queueing = 0.0;
  double execution = 0.0;
  double commit_phase = 0.0;
  double resp_p50 = 0.0;
  double resp_p95 = 0.0;
  double resp_p99 = 0.0;
  double opw_p50 = 0.0;
  double opw_p99 = 0.0;
  double lease_hits = 0.0;
  double lease_revokes = 0.0;
  double lease_releases = 0.0;
  double lease_revoke_wait = 0.0;
  int64_t cross_runs = 0;
  double commit_prepare = 0.0;
  double commit_vote = 0.0;
  double xcommit_p50 = 0.0;
  double commit_flights = 0.0;
  int64_t flight_runs = 0;
  double fastpath_pct = 0.0;
  double coord_pct = 0.0;
  double fallback_pct = 0.0;
  double sync_windows = 0.0;
  double sync_stalls = 0.0;
  for (ReplicaRun& run : runs) {
    proto::RunResult& result = run.result;
    responses.push_back(result.response.mean());
    abort_pcts.push_back(result.AbortPercent());
    throughputs.push_back(result.Throughput());
    fl_lengths.push_back(result.mean_forward_list_length);
    out.total_commits += result.commits;
    out.total_aborts += result.aborts;
    out.any_timed_out = out.any_timed_out || result.timed_out;
    out.any_trace_write_failed =
        out.any_trace_write_failed || result.trace_write_failed;
    out.wall_seconds += run.seconds;
    if (result.commits > 0) {
      messages += static_cast<double>(result.network.messages) /
                  static_cast<double>(result.commits);
      payload += static_cast<double>(result.network.payload_units) /
                 static_cast<double>(result.commits);
      expansions += static_cast<double>(result.read_group_expansions) /
                    static_cast<double>(result.commits);
      cross_pct += 100.0 * static_cast<double>(result.cross_server_commits) /
                   static_cast<double>(result.commits);
      fastpath_pct += 100.0 * static_cast<double>(result.fastpath_commits) /
                      static_cast<double>(result.commits);
      coord_pct += 100.0 *
                   static_cast<double>(result.coord_remote_commits) /
                   static_cast<double>(result.commits);
      fallback_pct += 100.0 *
                      static_cast<double>(result.commit_path_fallbacks) /
                      static_cast<double>(result.commits);
      lease_hits += static_cast<double>(result.lease_hits) /
                    static_cast<double>(result.commits);
      lease_revokes += static_cast<double>(result.lease_revokes) /
                       static_cast<double>(result.commits);
      lease_releases += static_cast<double>(result.lease_releases) /
                        static_cast<double>(result.commits);
    }
    if (result.commit_participants.count() > 0) {
      participants += result.commit_participants.mean();
      ++cross_runs;
    }
    if (result.commit_flights.count() > 0) {
      commit_flights += result.commit_flights.mean();
      xcommit_p50 += result.xcommit_span_hist.Percentile(0.50);
      ++flight_runs;
    }
    commit_prepare += result.span_commit_prepare.mean();
    commit_vote += result.span_commit_vote.mean();
    mean_cap += result.mean_effective_cap;
    final_cap += result.final_effective_cap;
    cap_increases += static_cast<double>(result.cap_increases);
    cap_decreases += static_cast<double>(result.cap_decreases);
    queue_delay += result.network.sender_queue_delay.mean() +
                   result.network.receiver_queue_delay.mean();
    queue_p99 += result.queue_delay_p99;
    utilization += result.max_link_utilization;
    lock_wait += result.span_lock_wait.mean();
    propagation += result.span_propagation.mean();
    queueing += result.span_queueing.mean();
    execution += result.span_execution.mean();
    commit_phase += result.span_commit.mean();
    resp_p50 += result.response_hist.Percentile(0.50);
    resp_p95 += result.response_hist.Percentile(0.95);
    resp_p99 += result.response_hist.Percentile(0.99);
    opw_p50 += result.op_wait_hist.Percentile(0.50);
    opw_p99 += result.op_wait_hist.Percentile(0.99);
    lease_revoke_wait += result.span_lease_revoke.mean();
    sync_windows += static_cast<double>(result.sync_windows);
    sync_stalls += static_cast<double>(result.sync_stalls);
    if (!result.obs_trace.empty()) {
      out.traces.push_back(std::move(result.obs_trace));
    }
    if (!result.metrics.empty()) {
      out.metrics.push_back(std::move(result.metrics));
      if (out.metric_names.empty()) {
        out.metric_names = std::move(result.metric_names);
      }
    }
  }
  const auto runs_count = static_cast<double>(runs.size());
  out.response = stats::Summarize(responses);
  out.abort_pct = stats::Summarize(abort_pcts);
  out.throughput = stats::Summarize(throughputs);
  out.fl_length = stats::Summarize(fl_lengths);
  out.mean_messages_per_commit = messages / runs_count;
  out.mean_payload_per_commit = payload / runs_count;
  out.expansions_per_commit = expansions / runs_count;
  out.mean_effective_cap = mean_cap / runs_count;
  out.final_effective_cap = final_cap / runs_count;
  out.mean_cap_increases = cap_increases / runs_count;
  out.mean_cap_decreases = cap_decreases / runs_count;
  out.cross_server_pct = cross_pct / runs_count;
  out.mean_commit_participants =
      cross_runs > 0 ? participants / static_cast<double>(cross_runs) : 0.0;
  out.mean_queue_delay = queue_delay / runs_count;
  out.queue_delay_p99 = queue_p99 / runs_count;
  out.mean_link_utilization = utilization / runs_count;
  out.mean_lock_wait = lock_wait / runs_count;
  out.mean_propagation = propagation / runs_count;
  out.mean_queueing = queueing / runs_count;
  out.mean_execution = execution / runs_count;
  out.mean_commit_phase = commit_phase / runs_count;
  out.response_p50 = resp_p50 / runs_count;
  out.response_p95 = resp_p95 / runs_count;
  out.response_p99 = resp_p99 / runs_count;
  out.op_wait_p50 = opw_p50 / runs_count;
  out.op_wait_p99 = opw_p99 / runs_count;
  out.lease_hits_per_commit = lease_hits / runs_count;
  out.lease_revokes_per_commit = lease_revokes / runs_count;
  out.lease_releases_per_commit = lease_releases / runs_count;
  out.mean_lease_revoke_wait = lease_revoke_wait / runs_count;
  out.mean_commit_prepare = commit_prepare / runs_count;
  out.mean_commit_vote = commit_vote / runs_count;
  out.fastpath_pct = fastpath_pct / runs_count;
  out.coord_remote_pct = coord_pct / runs_count;
  out.fallback_pct = fallback_pct / runs_count;
  out.mean_commit_flights =
      flight_runs > 0 ? commit_flights / static_cast<double>(flight_runs)
                      : 0.0;
  out.xcommit_p50 =
      flight_runs > 0 ? xcommit_p50 / static_cast<double>(flight_runs) : 0.0;
  out.mean_sync_windows = sync_windows / runs_count;
  out.mean_sync_stalls = sync_stalls / runs_count;
  return out;
}

SweepResult RunSweepImpl(const std::vector<proto::SimConfig>& points,
                         int32_t runs, int jobs, bool mix_point_seeds) {
  GTPL_CHECK_GE(runs, 1);
  const auto started = std::chrono::steady_clock::now();
  // Every cell writes only its own slot, and the points are folded below in
  // (point, rep) order, so the results are bit-identical at any job count.
  std::vector<std::vector<ReplicaRun>> grid(
      points.size(), std::vector<ReplicaRun>(static_cast<size_t>(runs)));
  const int64_t cells = static_cast<int64_t>(points.size()) * runs;
  exec::ThreadPool pool(
      static_cast<int>(std::min<int64_t>(exec::ResolveJobs(jobs), cells)));
  pool.Run(cells, [&](int64_t cell) {
    const auto point = static_cast<size_t>(cell / runs);
    const auto rep = static_cast<int32_t>(cell % runs);
    const proto::SimConfig& config = points[point];
    const uint64_t point_seed =
        mix_point_seeds ? PointSeed(config.seed, point) : config.seed;
    grid[point][static_cast<size_t>(rep)] =
        RunOneReplica(config, ReplicaSeed(point_seed, rep), rep, runs);
  });
  SweepResult out;
  out.jobs = pool.num_threads();
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
  out.points.reserve(grid.size());
  for (std::vector<ReplicaRun>& point_runs : grid) {
    out.points.push_back(AggregateReplications(point_runs));
    out.serial_seconds += out.points.back().wall_seconds;
  }
  return out;
}

}  // namespace

uint64_t ReplicaSeed(uint64_t point_seed, int32_t rep) {
  // Key the stream position with an odd multiplier so that nearby base
  // seeds (42, 43, ...) land on unrelated stream offsets instead of
  // overlapping windows, the collision the old `seed + rep + 1` scheme had.
  return rng::SplitMix64(point_seed +
                         0xD1342543DE82EF95ULL *
                             (static_cast<uint64_t>(rep) + 1));
}

uint64_t PointSeed(uint64_t base_seed, size_t point_index) {
  // A different odd constant keeps point streams disjoint from replica
  // streams of the same base seed.
  return rng::SplitMix64(base_seed +
                         0xA0761D6478BD642FULL *
                             (static_cast<uint64_t>(point_index) + 1));
}

PointResult RunReplicated(proto::SimConfig config, int32_t runs, int jobs) {
  SweepResult sweep =
      RunSweepImpl({config}, runs, jobs, /*mix_point_seeds=*/false);
  return std::move(sweep.points.front());
}

SweepResult RunSweep(const std::vector<proto::SimConfig>& points,
                     int32_t runs, int jobs) {
  GTPL_CHECK_GE(points.size(), 1u);
  return RunSweepImpl(points, runs, jobs, /*mix_point_seeds=*/true);
}

void ApplyScale(const ExperimentScale& scale, proto::SimConfig* config) {
  config->measured_txns = scale.measured_txns;
  config->warmup_txns = scale.warmup_txns;
  config->seed = scale.base_seed;
}

}  // namespace gtpl::harness
