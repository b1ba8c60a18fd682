#ifndef GTPL_HARNESS_EXPERIMENT_H_
#define GTPL_HARNESS_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/engine.h"
#include "stats/replication.h"

namespace gtpl::harness {

/// Aggregated metrics of one configuration point across R independent
/// replications (the paper: 5 runs, 95% Student-t confidence intervals,
/// relative precision kept under 2%).
struct PointResult {
  stats::ReplicationSummary response;      // mean transaction response time
  stats::ReplicationSummary abort_pct;     // % transactions aborted
  stats::ReplicationSummary throughput;    // commits per 1000 time units
  stats::ReplicationSummary fl_length;     // mean forward-list length (g-2PL)
  double mean_messages_per_commit = 0.0;
  double mean_payload_per_commit = 0.0;  // abstract units (net::k*Payload)
  /// Link-model metrics (0 under the default pure-propagation transport):
  /// mean per-message NIC queueing delay (sender + receiver waits), its
  /// 99th percentile, and the busiest NIC's busy fraction.
  double mean_queue_delay = 0.0;
  double queue_delay_p99 = 0.0;
  double mean_link_utilization = 0.0;
  double expansions_per_commit = 0.0;  // g-2PL read-group expansions
  /// Adaptive-window controller (g-2PL with adaptive enabled, 0 otherwise):
  /// mean cap consulted per dispatched window, mean end-of-run per-item cap,
  /// and mean controller adjustments (cap moves) per replication.
  double mean_effective_cap = 0.0;
  double final_effective_cap = 0.0;
  double mean_cap_increases = 0.0;
  double mean_cap_decreases = 0.0;
  /// Sharded runs: % of measured commits that ran cross-server 2PC, and the
  /// mean number of participant servers per such commit (0 when unsharded).
  double cross_server_pct = 0.0;
  double mean_commit_participants = 0.0;
  /// Geo-aware commit-path telemetry (0 unless sharded; DESIGN.md §13):
  /// per-round commit sub-span means, the p50 of the cross-server commit
  /// span, mean blocking WAN flights per cross-server commit, and the % of
  /// measured commits that took the fast path / a remote coordinator / the
  /// classic fallback (OCC).
  double mean_commit_prepare = 0.0;
  double mean_commit_vote = 0.0;
  double xcommit_p50 = 0.0;
  double mean_commit_flights = 0.0;
  double fastpath_pct = 0.0;
  double coord_remote_pct = 0.0;
  double fallback_pct = 0.0;
  /// Committed-transaction latency breakdown (DESIGN.md §11), averaged
  /// across replications. The five phase means sum to response.mean (each
  /// replication's phases sum exactly to its mean response time).
  double mean_lock_wait = 0.0;
  double mean_propagation = 0.0;
  double mean_queueing = 0.0;
  double mean_execution = 0.0;
  double mean_commit_phase = 0.0;
  /// Response-time / op-wait percentiles: each replication's histogram
  /// percentile, averaged across replications.
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  double response_p99 = 0.0;
  double op_wait_p50 = 0.0;
  double op_wait_p99 = 0.0;
  /// Sticky-lease telemetry (all 0 under --lease=none; DESIGN.md §14):
  /// mean cache-local lease hits / revoke callbacks / lease releases per
  /// commit, and the mean revoke-wait sub-span of the lock-wait phase.
  double lease_hits_per_commit = 0.0;
  double lease_revokes_per_commit = 0.0;
  double lease_releases_per_commit = 0.0;
  double mean_lease_revoke_wait = 0.0;
  /// Parallel-engine telemetry (sim_threads > 1 only, 0 otherwise;
  /// DESIGN.md §15): mean conservative synchronization windows per
  /// replication and mean barrier stalls — (LP, window) pairs where an LP
  /// had nothing below the horizon — the idle tax of the window protocol.
  double mean_sync_windows = 0.0;
  double mean_sync_stalls = 0.0;
  /// Per-replication observability traces, in replication order (empty
  /// unless the config set obs_trace; also empty when the trace streamed
  /// to a file instead of the in-memory buffer).
  std::vector<std::vector<obs::TraceEvent>> traces;
  /// Per-replication time-series metric rows, in replication order (empty
  /// unless the config set metrics_interval > 0), and the series names
  /// shared by every replication (registration order).
  std::vector<std::vector<obs::MetricRow>> metrics;
  std::vector<std::string> metric_names;
  int64_t total_commits = 0;
  int64_t total_aborts = 0;
  bool any_timed_out = false;
  /// True when any replication's streamed trace failed to write.
  bool any_trace_write_failed = false;
  /// Summed wall-clock seconds of this point's replications (the point's
  /// serial cost, independent of how many workers ran it).
  double wall_seconds = 0.0;
};

/// Seed of replication `rep` (0-based) of a point whose configured seed is
/// `point_seed`: one SplitMix64 step keyed by the replication index, so runs
/// never collide across replications or across nearby base seeds (the old
/// `seed + rep + 1` scheme shared runs between adjacent sweep points).
uint64_t ReplicaSeed(uint64_t point_seed, int32_t rep);

/// Seed of sweep point `point_index` under base seed `base_seed`. A second
/// SplitMix64 stream keyed with a different odd constant, so point streams
/// and replica streams never alias.
uint64_t PointSeed(uint64_t base_seed, size_t point_index);

/// Runs `runs` replications of `config` with per-replication seeds
/// ReplicaSeed(config.seed, rep) and aggregates. `jobs` replications run
/// concurrently (1 = serial inline, <= 0 = GTPL_JOBS / all cores); results
/// are bit-identical at any job count.
PointResult RunReplicated(proto::SimConfig config, int32_t runs,
                          int jobs = 1);

/// Result of a (config-point × replication) sweep.
struct SweepResult {
  std::vector<PointResult> points;  // one per input config, in input order
  double wall_seconds = 0.0;    // elapsed wall clock of the whole grid
  double serial_seconds = 0.0;  // sum of all per-replication wall clocks
  int jobs = 1;                 // threads actually used, caller included
};

/// Fans `points.size() × runs` simulations out across `jobs` worker threads
/// and aggregates each point's replications in deterministic order. Point k
/// runs with seed PointSeed(points[k].seed, k), i.e. its PointResult equals
/// RunReplicated(points[k] with that seed, runs) exactly, at any job count.
SweepResult RunSweep(const std::vector<proto::SimConfig>& points,
                     int32_t runs, int jobs = 0);

/// How hard the bench binaries drive each point. Paper scale is 50000
/// measured transactions x 5 replications; the default is scaled down to
/// keep the full suite in minutes (shapes are stable well before that).
struct ExperimentScale {
  int64_t measured_txns = 4000;
  int64_t warmup_txns = 400;
  int32_t runs = 3;
  uint64_t base_seed = 42;
};

/// Applies a scale to a config (txns + warmup + seed).
void ApplyScale(const ExperimentScale& scale, proto::SimConfig* config);

}  // namespace gtpl::harness

#endif  // GTPL_HARNESS_EXPERIMENT_H_
