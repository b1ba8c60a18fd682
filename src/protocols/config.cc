#include "protocols/config.h"

namespace gtpl::proto {

Status SimConfig::Validate() const {
  if (num_clients < 1) {
    return Status::InvalidArgument("num_clients must be >= 1");
  }
  if (num_servers < 1) {
    return Status::InvalidArgument("num_servers must be >= 1");
  }
  if (num_servers > workload.num_items) {
    return Status::InvalidArgument("num_servers must be <= num_items");
  }
  if (num_servers > 1 && commit_path != CommitPath::kClassic &&
      protocol == Protocol::kCbl) {
    return Status::InvalidArgument(
        "cbl supports only the classic commit path across servers");
  }
  if (lease.mode == lease::LeaseMode::kSticky &&
      protocol != Protocol::kS2pl && protocol != Protocol::kNoWait &&
      protocol != Protocol::kWaitDie && protocol != Protocol::kOrdered &&
      protocol != Protocol::kWoundWait) {
    return Status::InvalidArgument(
        "lease=sticky requires a lock-table engine "
        "(s2pl, nowait, waitdie, woundwait, ordered)");
  }
  if (lease.ttl < 0) {
    return Status::InvalidArgument("lease ttl must be >= 0 (0 = infinite)");
  }
  if (lease.max_held < 0) {
    return Status::InvalidArgument(
        "lease max_held must be >= 0 (0 = unlimited)");
  }
  if (latency < 0) return Status::InvalidArgument("latency must be >= 0");
  if (server_latency < -1) {
    return Status::InvalidArgument("server_latency must be -1 or >= 0");
  }
  if (latency_jitter < 0) {
    return Status::InvalidArgument("latency_jitter must be >= 0");
  }
  if (latency_spread < 0.0 || latency_spread > 1.0) {
    return Status::InvalidArgument("latency_spread must be in [0,1]");
  }
  if (link_bandwidth < 0.0) {
    return Status::InvalidArgument("link_bandwidth must be >= 0 (0 = inf)");
  }
  if (cross_traffic_load < 0.0 || cross_traffic_load >= 1.0) {
    return Status::InvalidArgument("cross_traffic_load must be in [0,1)");
  }
  if (cross_traffic_load > 0.0 && (!nic_queue || link_bandwidth <= 0.0)) {
    return Status::InvalidArgument(
        "cross_traffic_load requires nic_queue and finite link_bandwidth");
  }
  if (lease.mode == lease::LeaseMode::kSticky &&
      (latency_jitter != 0 || (link_bandwidth > 0.0 && !nic_queue))) {
    // Lease callbacks assume each server->client channel delivers in order
    // (DESIGN.md §14). Jitter reorders any two messages, and at finite
    // bandwidth without NIC queues a control-sized revoke finishes
    // transmitting before the data-carrying grant it follows.
    return Status::InvalidArgument(
        "lease=sticky requires in-order delivery on every channel: no "
        "latency_jitter (--jitter), and a finite link_bandwidth "
        "(--bandwidth) only with nic_queue (--nic-queue)");
  }
  if (workload.num_items < 1) {
    return Status::InvalidArgument("num_items must be >= 1");
  }
  if (workload.min_items_per_txn < 1 ||
      workload.min_items_per_txn > workload.max_items_per_txn ||
      workload.max_items_per_txn > workload.num_items) {
    return Status::InvalidArgument("items-per-txn range invalid");
  }
  if (workload.read_prob < 0.0 || workload.read_prob > 1.0) {
    return Status::InvalidArgument("read_prob must be in [0,1]");
  }
  if (workload.repeat_prob < 0.0 || workload.repeat_prob > 1.0) {
    return Status::InvalidArgument("repeat_prob must be in [0,1]");
  }
  if (workload.min_think < 0 || workload.min_think > workload.max_think) {
    return Status::InvalidArgument("think range invalid");
  }
  if (workload.min_idle < 0 || workload.min_idle > workload.max_idle) {
    return Status::InvalidArgument("idle range invalid");
  }
  if (measured_txns < 1) {
    return Status::InvalidArgument("measured_txns must be >= 1");
  }
  if (warmup_txns < 0) {
    return Status::InvalidArgument("warmup_txns must be >= 0");
  }
  if (g2pl.max_forward_list_length < 0) {
    return Status::InvalidArgument("max_forward_list_length must be >= 0");
  }
  if (g2pl.aging_threshold < 0) {
    return Status::InvalidArgument("aging_threshold must be >= 0");
  }
  if (max_sim_time < 0) {
    return Status::InvalidArgument("max_sim_time must be >= 0");
  }
  if (!trace_stream_path.empty() && !obs_trace) {
    return Status::InvalidArgument(
        "trace_stream_path requires obs_trace (simulate --trace-stream "
        "implies it)");
  }
  if (trace_flush_bytes < 1) {
    return Status::InvalidArgument("trace_flush_bytes must be >= 1");
  }
  if (metrics_interval < 0) {
    return Status::InvalidArgument("metrics_interval must be >= 0 (0 = off)");
  }
  if (sim_threads < 1) {
    return Status::InvalidArgument("sim_threads must be >= 1");
  }
  if (sim_threads > 1) {
    // The parallel engine covers the decomposable subset: every coupling
    // between shards must ride a message with >= one latency of delay
    // (the lookahead), or conservative windows have no safe width.
    if (protocol != Protocol::kNoWait && protocol != Protocol::kWaitDie) {
      return Status::InvalidArgument(
          "sim_threads > 1 supports the requester-victim engines only "
          "(nowait, waitdie); other protocols consult instantaneous "
          "cross-shard state (global graphs, wounds, caches)");
    }
    if (commit_path != CommitPath::kClassic) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires the classic commit path");
    }
    if (lease.mode != lease::LeaseMode::kNone) {
      return Status::InvalidArgument(
          "sim_threads > 1 does not support lock leases");
    }
    if (link_bandwidth != 0.0 || latency_jitter != 0 ||
        latency_spread != 0.0 || server_latency >= 0) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires the uniform pure-propagation network "
          "model (no bandwidth, jitter, spread, or server-latency mesh)");
    }
    if (latency < 1) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires latency >= 1 (the lookahead bound)");
    }
    if (instant_abort_notice) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires charged abort notices "
          "(--charged-abort-notice): an instant notice is a zero-latency "
          "cross-shard edge");
    }
    // obs_trace is supported: each LP gets its own Tracer and the streams
    // are k-way merged at window barriers into the kernel's deterministic
    // (time, lp, seq) order (DESIGN.md §16), so the invariant checkers run
    // on the merged trace too.
  }
  return Status::Ok();
}

}  // namespace gtpl::proto
