// simulate: general-purpose command-line driver for the simulator — every
// model knob from one flag set, one run (or R replications), full report.
//
//   ./build/examples/simulate --protocol=g2pl --clients=50 --latency=500
//       --read-prob=0.6 --txns=10000 --runs=3
//
// Run with --help for the complete flag list.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "cc/registry.h"
#include "core/adaptive_window.h"
#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "lease/lease.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "protocols/config.h"
#include "protocols/engine.h"

namespace {

using gtpl::harness::ParseDoubleValue;
using gtpl::harness::ParseInt32Value;
using gtpl::harness::ParseInt64Value;

/// Strict numeric flag parsing: the whole value must parse (from_chars), or
/// the flag is rejected with a diagnostic — `--fl-cap=abc` is an error, not
/// a silent 0 the way the atoi/atof family would read it.
bool BadValue(const char* flag, const char* value) {
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value);
  return false;
}

bool ParseInt32Flag(const char* flag, const char* value, int32_t* out) {
  return ParseInt32Value(value, out) || BadValue(flag, value);
}

bool ParseInt64Flag(const char* flag, const char* value, int64_t* out) {
  return ParseInt64Value(value, out) || BadValue(flag, value);
}

bool ParseDoubleFlag(const char* flag, const char* value, double* out) {
  return ParseDoubleValue(value, out) || BadValue(flag, value);
}

struct Flags {
  gtpl::proto::SimConfig config;
  int32_t runs = 1;
  int jobs = 1;  // replications run serially unless --jobs raises it
  std::string trace_path;  // empty = tracing off
  gtpl::obs::TraceFormat trace_format = gtpl::obs::TraceFormat::kJsonl;
  std::string metrics_path;  // empty = no metrics file
  gtpl::obs::MetricsFormat metrics_format = gtpl::obs::MetricsFormat::kCsv;
};

void PrintUsage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --protocol=NAME      registered cc engine (default s2pl); --cc=NAME\n"
      "                       is an alias. Registered engines:\n"
      "                       %s\n"
      "  --clients=N          number of client sites (default 50)\n"
      "  --servers=N          data servers the items shard across (1)\n"
      "  --commit=NAME        cross-server commit path (classic). Paths:\n"
      "                       %s\n"
      "  --server-latency=N   server<->server one-way latency override;\n"
      "                       -1 = same as --latency (-1)\n"
      "  --latency=N          one-way network latency, time units (500)\n"
      "  --jitter=N           extra U[0,N] per message (0)\n"
      "  --spread=F           client distance spread in [0,1] (0)\n"
      "  --bandwidth=F        link bandwidth, payload units/tick; 0 = inf (0)\n"
      "  --nic-queue          FIFO per-endpoint NIC queues (off)\n"
      "  --cross-traffic=F    background NIC load in [0,1) (0)\n"
      "  --items=N            hot data items at the server (25)\n"
      "  --ops=MIN:MAX        items accessed per txn (1:5)\n"
      "  --read-prob=F        probability an access is a read (0.5)\n"
      "  --zipf=F             access skew theta, 0 = uniform (0)\n"
      "  --repeat-prob=F      probability a txn re-accesses the previous\n"
      "                       txn's items (0)\n"
      "  --sorted             access items in ascending id order\n"
      "  --lease=NAME         client lock-lease mode (none). Modes:\n"
      "                       %s\n"
      "  --lease-ttl=N        lease lifetime, time units; 0 = infinite (0)\n"
      "  --lease-max-held=N   max unpinned leases per client; 0 = inf (0)\n"
      "  --txns=N             measured committed transactions (10000)\n"
      "  --warmup=N           transient-phase transactions excluded (1000)\n"
      "  --runs=N             independent replications (1)\n"
      "  --jobs=N             worker threads for replications (1; 0 = auto)\n"
      "  --seed=N             base RNG seed (1)\n"
      "  --mr1w=0|1           g-2PL MR1W optimization (1)\n"
      "  --fl-cap=N           g-2PL forward-list length cap, 0 = none (0)\n"
      "  --adaptive-window    g-2PL per-item adaptive FL cap (off)\n"
      "  --expand-reads       g-2PL read-group expansion (off)\n"
      "  --ordering=fifo|reads-first|writes-first   g-2PL FL order (fifo)\n"
      "  --charged-abort-notice   charge one latency for abort notices\n"
      "  --sim-threads=N      intra-run worker threads (1 = the serial\n"
      "                       engine; N > 1 runs the conservative per-shard\n"
      "                       parallel engine, bit-identical at any N)\n"
      "  --trace=PATH         write the structured observability trace there\n"
      "                       (runs > 1 append .repN per replication)\n"
      "  --trace-format=jsonl|chrome   trace file format (jsonl; chrome\n"
      "                       loads into chrome://tracing / Perfetto)\n"
      "  --trace-stream=PATH  stream the trace to PATH while running\n"
      "                       (bounded memory; JSONL only, byte-identical\n"
      "                       to --trace; runs > 1 append .repN)\n"
      "  --trace-flush-bytes=N  streaming chunk watermark, bytes (1048576)\n"
      "  --metrics-interval=N sample time-series gauges every N simulated\n"
      "                       time units (>= 1; off by default; needs\n"
      "                       --metrics-out)\n"
      "  --metrics-out=PATH   write the sampled series there (runs > 1\n"
      "                       append .repN per replication)\n"
      "  --metrics-format=csv|jsonl   metrics file format (csv)\n",
      prog, gtpl::cc::Engines().Names().c_str(),
      gtpl::proto::CommitPaths().Names().c_str(),
      gtpl::lease::LeaseModes().Names().c_str());
}

bool ParseFlag(const std::string& arg, Flags* flags) {
  auto value_of = [&arg](const char* prefix) -> const char* {
    const size_t len = std::strlen(prefix);
    if (arg.compare(0, len, prefix) == 0) return arg.c_str() + len;
    return nullptr;
  };
  gtpl::proto::SimConfig& config = flags->config;
  if (const char* v1 = value_of("--protocol=")) {
    // Strict: unknown names fail (non-zero exit) listing the registry.
    const gtpl::Status status =
        gtpl::cc::Engines().Parse(v1, &config.protocol);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return BadValue("--protocol", v1);
    }
  } else if (const char* vcc = value_of("--cc=")) {
    const gtpl::Status status =
        gtpl::cc::Engines().Parse(vcc, &config.protocol);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return BadValue("--cc", vcc);
    }
  } else if (const char* v2 = value_of("--clients=")) {
    return ParseInt32Flag("--clients", v2, &config.num_clients);
  } else if (const char* vs = value_of("--servers=")) {
    return ParseInt32Flag("--servers", vs, &config.num_servers);
  } else if (const char* vcp = value_of("--commit=")) {
    // Strict: unknown names fail (non-zero exit) listing the registry.
    const gtpl::Status status =
        gtpl::proto::CommitPaths().Parse(vcp, &config.commit_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return BadValue("--commit", vcp);
    }
  } else if (const char* vsl = value_of("--server-latency=")) {
    return ParseInt64Flag("--server-latency", vsl, &config.server_latency);
  } else if (const char* v3 = value_of("--latency=")) {
    return ParseInt64Flag("--latency", v3, &config.latency);
  } else if (const char* v4 = value_of("--jitter=")) {
    return ParseInt64Flag("--jitter", v4, &config.latency_jitter);
  } else if (const char* v5 = value_of("--spread=")) {
    return ParseDoubleFlag("--spread", v5, &config.latency_spread);
  } else if (const char* vb = value_of("--bandwidth=")) {
    return ParseDoubleFlag("--bandwidth", vb, &config.link_bandwidth);
  } else if (arg == "--nic-queue") {
    config.nic_queue = true;
  } else if (const char* vc = value_of("--cross-traffic=")) {
    return ParseDoubleFlag("--cross-traffic", vc, &config.cross_traffic_load);
  } else if (const char* v6 = value_of("--items=")) {
    return ParseInt32Flag("--items", v6, &config.workload.num_items);
  } else if (const char* v7 = value_of("--ops=")) {
    const char* colon = std::strchr(v7, ':');
    if (colon == nullptr) return BadValue("--ops", v7);
    const std::string lo_text(v7, colon);
    int32_t lo = 0;
    int32_t hi = 0;
    if (!ParseInt32Value(lo_text.c_str(), &lo) ||
        !ParseInt32Value(colon + 1, &hi)) {
      return BadValue("--ops", v7);
    }
    config.workload.min_items_per_txn = lo;
    config.workload.max_items_per_txn = hi;
  } else if (const char* v8 = value_of("--read-prob=")) {
    return ParseDoubleFlag("--read-prob", v8, &config.workload.read_prob);
  } else if (const char* v9 = value_of("--zipf=")) {
    return ParseDoubleFlag("--zipf", v9, &config.workload.zipf_theta);
  } else if (const char* vrp = value_of("--repeat-prob=")) {
    return ParseDoubleFlag("--repeat-prob", vrp,
                           &config.workload.repeat_prob);
  } else if (arg == "--sorted") {
    config.workload.sorted_access = true;
  } else if (const char* vlm = value_of("--lease=")) {
    // Strict: unknown names fail (non-zero exit) listing the registry.
    const gtpl::Status status =
        gtpl::lease::LeaseModes().Parse(vlm, &config.lease.mode);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return BadValue("--lease", vlm);
    }
  } else if (const char* vlt = value_of("--lease-ttl=")) {
    return ParseInt64Flag("--lease-ttl", vlt, &config.lease.ttl);
  } else if (const char* vlh = value_of("--lease-max-held=")) {
    return ParseInt32Flag("--lease-max-held", vlh, &config.lease.max_held);
  } else if (const char* v10 = value_of("--txns=")) {
    return ParseInt64Flag("--txns", v10, &config.measured_txns);
  } else if (const char* v11 = value_of("--warmup=")) {
    return ParseInt64Flag("--warmup", v11, &config.warmup_txns);
  } else if (const char* v12 = value_of("--runs=")) {
    return ParseInt32Flag("--runs", v12, &flags->runs);
  } else if (const char* vj = value_of("--jobs=")) {
    int32_t jobs = 0;
    if (!ParseInt32Flag("--jobs", vj, &jobs)) return false;
    flags->jobs = jobs;
  } else if (const char* v13 = value_of("--seed=")) {
    int64_t seed = 0;
    if (!ParseInt64Flag("--seed", v13, &seed)) return false;
    config.seed = static_cast<uint64_t>(seed);
  } else if (const char* v14 = value_of("--mr1w=")) {
    int32_t mr1w = 0;
    if (!ParseInt32Flag("--mr1w", v14, &mr1w)) return false;
    config.g2pl.mr1w = mr1w != 0;
  } else if (const char* v15 = value_of("--fl-cap=")) {
    return ParseInt32Flag("--fl-cap", v15,
                          &config.g2pl.max_forward_list_length);
  } else if (arg == "--adaptive-window") {
    config.g2pl.adaptive_window = true;
  } else if (arg == "--expand-reads") {
    config.g2pl.expand_read_groups = true;
  } else if (const char* v16 = value_of("--ordering=")) {
    const std::string name = v16;
    if (name == "fifo") {
      config.g2pl.ordering = gtpl::core::OrderingPolicy::kFifo;
    } else if (name == "reads-first") {
      config.g2pl.ordering = gtpl::core::OrderingPolicy::kReadsFirst;
    } else if (name == "writes-first") {
      config.g2pl.ordering = gtpl::core::OrderingPolicy::kWritesFirst;
    } else {
      return BadValue("--ordering", v16);
    }
  } else if (arg == "--charged-abort-notice") {
    config.instant_abort_notice = false;
  } else if (const char* vst = value_of("--sim-threads=")) {
    // Strict: 0, negatives, and malformed values all fail (non-zero exit).
    int32_t threads = 0;
    if (!ParseInt32Flag("--sim-threads", vst, &threads)) return false;
    if (threads < 1 || threads > 256) return BadValue("--sim-threads", vst);
    config.sim_threads = threads;
  } else if (const char* vt = value_of("--trace=")) {
    if (*vt == '\0') return BadValue("--trace", vt);
    flags->trace_path = vt;
    config.obs_trace = true;
  } else if (const char* vf = value_of("--trace-format=")) {
    const std::string name = vf;
    if (name == "jsonl") {
      flags->trace_format = gtpl::obs::TraceFormat::kJsonl;
    } else if (name == "chrome") {
      flags->trace_format = gtpl::obs::TraceFormat::kChrome;
    } else {
      return BadValue("--trace-format", vf);
    }
  } else if (const char* vts = value_of("--trace-stream=")) {
    if (*vts == '\0') return BadValue("--trace-stream", vts);
    config.trace_stream_path = vts;
    config.obs_trace = true;
  } else if (const char* vfb = value_of("--trace-flush-bytes=")) {
    int64_t bytes = 0;
    if (!ParseInt64Flag("--trace-flush-bytes", vfb, &bytes)) return false;
    if (bytes < 1) return BadValue("--trace-flush-bytes", vfb);
    config.trace_flush_bytes = bytes;
  } else if (const char* vmi = value_of("--metrics-interval=")) {
    // Strict: 0, negatives, and malformed values all fail (non-zero exit).
    int64_t interval = 0;
    if (!ParseInt64Flag("--metrics-interval", vmi, &interval)) return false;
    if (interval < 1) return BadValue("--metrics-interval", vmi);
    config.metrics_interval = interval;
  } else if (const char* vmo = value_of("--metrics-out=")) {
    if (*vmo == '\0') return BadValue("--metrics-out", vmo);
    flags->metrics_path = vmo;
  } else if (const char* vmf = value_of("--metrics-format=")) {
    const std::string name = vmf;
    if (name == "csv") {
      flags->metrics_format = gtpl::obs::MetricsFormat::kCsv;
    } else if (name == "jsonl") {
      flags->metrics_format = gtpl::obs::MetricsFormat::kJsonl;
    } else {
      return BadValue("--metrics-format", vmf);
    }
  } else {
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.config.measured_txns = 10000;
  flags.config.warmup_txns = 1000;
  flags.config.max_sim_time = 60'000'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || !ParseFlag(arg, &flags)) {
      PrintUsage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if (!flags.config.trace_stream_path.empty()) {
    if (!flags.trace_path.empty()) {
      std::fprintf(stderr, "--trace-stream and --trace are mutually "
                           "exclusive (one trace destination per run)\n");
      return 2;
    }
    if (flags.trace_format == gtpl::obs::TraceFormat::kChrome) {
      std::fprintf(stderr, "--trace-stream writes JSONL only; "
                           "--trace-format=chrome needs the buffered "
                           "--trace path\n");
      return 2;
    }
  }
  if (flags.config.metrics_interval > 0 && flags.metrics_path.empty()) {
    std::fprintf(stderr, "--metrics-interval needs --metrics-out=PATH\n");
    return 2;
  }
  if (flags.config.metrics_interval == 0 && !flags.metrics_path.empty()) {
    std::fprintf(stderr, "--metrics-out needs --metrics-interval=N\n");
    return 2;
  }
  const gtpl::Status status = flags.config.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  // The engine opens a streamed trace only when its run starts, so probe
  // every file the runs will stream to (the harness's .rep<r> names when
  // runs > 1) before the first run: an unwritable path is a usage error.
  if (!flags.config.trace_stream_path.empty()) {
    for (int32_t rep = 0; rep < flags.runs; ++rep) {
      const std::string path =
          flags.runs == 1
              ? flags.config.trace_stream_path
              : flags.config.trace_stream_path + ".rep" + std::to_string(rep);
      if (!std::ofstream(path, std::ios::binary)) {
        std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
        return 2;
      }
    }
  }

  std::printf("protocol %s, %d clients, latency %lld (+U[0,%lld], spread "
              "%.2f), %d items, ops %d-%d, pr %.2f, zipf %.2f\n",
              gtpl::proto::ToString(flags.config.protocol),
              flags.config.num_clients,
              static_cast<long long>(flags.config.latency),
              static_cast<long long>(flags.config.latency_jitter),
              flags.config.latency_spread, flags.config.workload.num_items,
              flags.config.workload.min_items_per_txn,
              flags.config.workload.max_items_per_txn,
              flags.config.workload.read_prob,
              flags.config.workload.zipf_theta);
  if (flags.config.link_bandwidth > 0.0) {
    std::printf("link bandwidth %.2f units/tick, NIC queues %s, "
                "cross-traffic load %.2f\n",
                flags.config.link_bandwidth,
                flags.config.nic_queue ? "on" : "off",
                flags.config.cross_traffic_load);
  }
  if (flags.config.num_servers > 1) {
    std::printf("%d servers, hash routing, commit path %s",
                flags.config.num_servers,
                gtpl::proto::ToString(flags.config.commit_path));
    if (flags.config.server_latency >= 0) {
      std::printf(", server-server latency %lld",
                  static_cast<long long>(flags.config.server_latency));
    }
    std::printf("\n");
  }
  if (flags.config.lease.mode != gtpl::lease::LeaseMode::kNone) {
    std::printf("lease mode %s, ttl %lld, max held %d, repeat prob %.2f\n",
                gtpl::lease::ToString(flags.config.lease.mode),
                static_cast<long long>(flags.config.lease.ttl),
                flags.config.lease.max_held,
                flags.config.workload.repeat_prob);
  }
  if (flags.config.sim_threads > 1) {
    std::printf("parallel engine: %d sim threads, lookahead %lld\n",
                flags.config.sim_threads,
                static_cast<long long>(flags.config.latency));
  }
  if (flags.config.g2pl.adaptive_window) {
    std::printf("adaptive window: cap %d in [%d,%d], shrink %.2f, grow %d, "
                "hysteresis %d\n",
                gtpl::core::kAdaptiveInitialCap, gtpl::core::kAdaptiveMinCap,
                gtpl::core::kAdaptiveMaxCap,
                gtpl::core::kAdaptiveDecreaseFactor,
                gtpl::core::kAdaptiveIncreaseStep,
                gtpl::core::kAdaptiveHysteresis);
  }
  std::printf("\n");

  const gtpl::harness::PointResult point =
      gtpl::harness::RunReplicated(flags.config, flags.runs, flags.jobs);
  gtpl::harness::Table table({"metric", "value"});
  table.AddRow({"replications", std::to_string(flags.runs)});
  table.AddRow({"mean response time",
                gtpl::harness::FmtCi(point.response.mean,
                                     point.response.ci_half_width)});
  table.AddRow({"relative precision",
                gtpl::harness::Fmt(100 * point.response.relative_precision,
                                   2) +
                    "%"});
  table.AddRow({"abort percentage",
                gtpl::harness::FmtCi(point.abort_pct.mean,
                                     point.abort_pct.ci_half_width, 2)});
  table.AddRow({"response p50 / p95 / p99",
                gtpl::harness::Fmt(point.response_p50, 0) + " / " +
                    gtpl::harness::Fmt(point.response_p95, 0) + " / " +
                    gtpl::harness::Fmt(point.response_p99, 0)});
  table.AddRow({"  lock wait",
                gtpl::harness::Fmt(point.mean_lock_wait, 1)});
  table.AddRow({"  propagation",
                gtpl::harness::Fmt(point.mean_propagation, 1)});
  table.AddRow({"  transmission+queueing",
                gtpl::harness::Fmt(point.mean_queueing, 1)});
  table.AddRow({"  execution (think)",
                gtpl::harness::Fmt(point.mean_execution, 1)});
  table.AddRow({"  commit phase",
                gtpl::harness::Fmt(point.mean_commit_phase, 1)});
  table.AddRow({"op wait p50 / p99",
                gtpl::harness::Fmt(point.op_wait_p50, 0) + " / " +
                    gtpl::harness::Fmt(point.op_wait_p99, 0)});
  table.AddRow({"throughput (commits/1000u)",
                gtpl::harness::Fmt(point.throughput.mean, 3)});
  table.AddRow({"messages per commit",
                gtpl::harness::Fmt(point.mean_messages_per_commit, 1)});
  if (flags.config.num_servers > 1) {
    table.AddRow({"cross-server commits",
                  gtpl::harness::Fmt(point.cross_server_pct, 1) + "%"});
    table.AddRow({"  commit prepare / vote span",
                  gtpl::harness::Fmt(point.mean_commit_prepare, 1) + " / " +
                      gtpl::harness::Fmt(point.mean_commit_vote, 1)});
    table.AddRow({"  cross-commit span p50",
                  gtpl::harness::Fmt(point.xcommit_p50, 0)});
    table.AddRow({"  commit WAN flights",
                  gtpl::harness::Fmt(point.mean_commit_flights, 2)});
    table.AddRow({"  fastpath / coord / fallback",
                  gtpl::harness::Fmt(point.fastpath_pct, 1) + "% / " +
                      gtpl::harness::Fmt(point.coord_remote_pct, 1) + "% / " +
                      gtpl::harness::Fmt(point.fallback_pct, 1) + "%"});
  }
  if (flags.config.link_bandwidth > 0.0) {
    table.AddRow({"queue delay per message",
                  gtpl::harness::Fmt(point.mean_queue_delay, 2)});
    table.AddRow({"queue delay p99",
                  gtpl::harness::Fmt(point.queue_delay_p99, 1)});
    table.AddRow({"peak link utilization",
                  gtpl::harness::Fmt(100 * point.mean_link_utilization, 1) +
                      "%"});
  }
  if (flags.config.protocol == gtpl::proto::Protocol::kG2pl) {
    table.AddRow({"mean forward-list length",
                  gtpl::harness::Fmt(point.fl_length.mean, 2)});
    if (flags.config.g2pl.adaptive_window) {
      table.AddRow({"mean effective cap",
                    gtpl::harness::Fmt(point.mean_effective_cap, 2)});
      table.AddRow({"final effective cap",
                    gtpl::harness::Fmt(point.final_effective_cap, 2)});
      table.AddRow({"cap increases / decreases",
                    gtpl::harness::Fmt(point.mean_cap_increases, 1) + " / " +
                        gtpl::harness::Fmt(point.mean_cap_decreases, 1)});
    }
  }
  if (flags.config.lease.mode != gtpl::lease::LeaseMode::kNone) {
    table.AddRow({"lease hits per commit",
                  gtpl::harness::Fmt(point.lease_hits_per_commit, 2)});
    table.AddRow({"lease revokes / releases per commit",
                  gtpl::harness::Fmt(point.lease_revokes_per_commit, 2) +
                      " / " +
                      gtpl::harness::Fmt(point.lease_releases_per_commit, 2)});
    table.AddRow({"  revoke wait (of lock wait)",
                  gtpl::harness::Fmt(point.mean_lease_revoke_wait, 1)});
  }
  if (flags.config.sim_threads > 1) {
    table.AddRow({"sync windows",
                  gtpl::harness::Fmt(point.mean_sync_windows, 0)});
    table.AddRow({"  barrier stalls (LP-windows)",
                  gtpl::harness::Fmt(point.mean_sync_stalls, 0)});
  }
  table.AddRow({"committed transactions", std::to_string(point.total_commits)});
  table.AddRow({"aborted transactions", std::to_string(point.total_aborts)});
  table.Print();
  if (!flags.trace_path.empty()) {
    for (size_t rep = 0; rep < point.traces.size(); ++rep) {
      const std::string path =
          point.traces.size() == 1
              ? flags.trace_path
              : flags.trace_path + ".rep" + std::to_string(rep);
      // A stream that failed to open or to write fails the final flush.
      std::ofstream out(path, std::ios::binary);
      if (flags.trace_format == gtpl::obs::TraceFormat::kChrome) {
        gtpl::obs::WriteChromeTrace(point.traces[rep], out);
      } else {
        gtpl::obs::WriteJsonl(point.traces[rep], out);
      }
      if (!out.flush()) {
        std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
        return 2;
      }
      std::printf("trace (%zu events) written to %s\n",
                  point.traces[rep].size(), path.c_str());
    }
  }
  if (!flags.config.trace_stream_path.empty()) {
    const char* suffix =
        flags.runs > 1 ? ".rep<r> (one file per replication)" : "";
    if (point.any_trace_write_failed) {
      std::fprintf(stderr, "cannot write trace file %s%s\n",
                   flags.config.trace_stream_path.c_str(), suffix);
      return 2;
    }
    std::printf("trace streamed to %s%s\n",
                flags.config.trace_stream_path.c_str(), suffix);
  }
  if (!flags.metrics_path.empty()) {
    for (size_t rep = 0; rep < point.metrics.size(); ++rep) {
      const std::string path =
          point.metrics.size() == 1
              ? flags.metrics_path
              : flags.metrics_path + ".rep" + std::to_string(rep);
      std::ofstream out(path, std::ios::binary);
      if (flags.metrics_format == gtpl::obs::MetricsFormat::kJsonl) {
        gtpl::obs::WriteMetricsJsonl(point.metric_names, point.metrics[rep],
                                     out);
      } else {
        gtpl::obs::WriteMetricsCsv(point.metric_names, point.metrics[rep],
                                   out);
      }
      if (!out.flush()) {
        std::fprintf(stderr, "cannot write metrics file %s\n", path.c_str());
        return 2;
      }
      std::printf("metrics (%zu rows) written to %s\n",
                  point.metrics[rep].size(), path.c_str());
    }
  }
  if (point.any_timed_out) {
    std::fprintf(stderr, "\nWARNING: at least one replication hit the "
                         "simulation horizon before finishing.\n");
    return 1;
  }
  return 0;
}
