// A16 — Extension: the concurrency-control zoo. Every registered sharded
// engine (s-2PL, g-2PL, no-wait, wait-die, OCC, ordered-release 2PL) swept
// over protocol x WAN latency x contention (zipf skew) x server count, with
// the per-phase lifecycle spans, so the table shows *why* each policy wins
// or loses at each RTT:
//
//  - s-2PL pays lock wait that grows with latency (waiters queue behind
//    WAN-long holds); detection keeps aborts rare but waits long.
//  - no-wait converts every block into a restart: tiny lock wait, abort
//    rates that explode under skew, each retry re-paying propagation.
//  - wait-die sits between: young requesters die, old ones wait.
//  - OCC has zero lock wait by construction; it pays one extra commit round
//    (validation) plus restarts that grow with skew and with latency (the
//    validation window is the whole transaction).
//  - ordered releases participant locks at prepare (one WAN round early),
//    so under contention + sharding its lock-wait column undercuts s-2PL.
//  - g-2PL is the paper's contribution and the reference point.
//
// The second table is the in-order-access ablation (--sorted workload,
// heavy skew): ordered acquisition makes the ordered policy abort-free
// (blocking out of item order never happens), while no-wait keeps
// restarting on every conflict — the Brook-2PL claim in miniature.

#include "bench_common.h"
#include "cc/registry.h"

namespace gtpl::bench {
namespace {

struct Row {
  const cc::EngineInfo* engine;
  int32_t servers;
  SimTime latency;
  double zipf;
};

std::vector<const cc::EngineInfo*> SelectedEngines(
    const harness::CliOptions& options) {
  std::vector<const cc::EngineInfo*> engines;
  for (const cc::EngineInfo& info : cc::Engines()) {
    if (!options.cc.empty() && options.cc != info.name) continue;
    engines.push_back(&info);
  }
  return engines;
}

void AddSpanRow(harness::Table& table, const Row& row,
                const harness::PointResult& point) {
  table.AddRow({row.engine->name, std::to_string(row.servers),
                std::to_string(row.latency), harness::Fmt(row.zipf, 1),
                harness::Fmt(point.response.mean, 0),
                harness::Fmt(point.abort_pct.mean, 1),
                harness::Fmt(point.mean_lock_wait, 1),
                harness::Fmt(point.mean_propagation, 1),
                harness::Fmt(point.mean_queueing, 1),
                harness::Fmt(point.mean_execution, 1),
                harness::Fmt(point.mean_commit_phase, 1),
                harness::Fmt(point.response_p99, 0),
                harness::Fmt(100 * point.response.relative_precision, 1)});
}

void Run(const harness::CliOptions& options) {
  const std::vector<const cc::EngineInfo*> engines = SelectedEngines(options);
  if (engines.empty()) {
    std::fprintf(stderr, "--cc=%s does not name a sharded engine\n",
                 options.cc.c_str());
    std::exit(2);
  }
  const std::vector<std::string> columns = {
      "cc",    "servers", "latency", "zipf",   "resp", "abort%", "lockw",
      "prop",  "queue",   "think",   "commit", "p99",  "ci%"};

  harness::Table zoo(columns);
  TagGrid<Row> grid(options);
  for (const cc::EngineInfo* engine : engines) {
    for (int32_t servers : {1, 4}) {
      for (SimTime latency : {1, 100, 500}) {
        for (double zipf : {0.0, 0.9}) {
          proto::SimConfig config = PaperBaseConfig();
          harness::ApplyScale(options.scale, &config);
          config.protocol = engine->protocol;
          config.num_servers = servers;
          config.latency = latency;
          config.workload.zipf_theta = zipf;
          grid.Add(Row{engine, servers, latency, zipf}, config);
        }
      }
    }
  }
  grid.Run();
  grid.Each([&zoo](const Row& row, const harness::PointResult& point) {
    AddSpanRow(zoo, row, point);
  });
  std::printf("protocol zoo: engine x latency x contention (zipf), "
              "per-phase spans\n");
  zoo.Print(options.csv_path);
  grid.PrintSummary();

  harness::Table sorted(columns);
  TagGrid<Row> ablation(options);
  for (const cc::EngineInfo* engine : engines) {
    if (std::string(engine->name) == "g2pl" ||
        std::string(engine->name) == "occ") {
      continue;  // lock-order ablation: 2PL-family engines only
    }
    for (int32_t servers : {1, 4}) {
      for (SimTime latency : {1, 100, 500}) {
        proto::SimConfig config = PaperBaseConfig();
        harness::ApplyScale(options.scale, &config);
        config.protocol = engine->protocol;
        config.num_servers = servers;
        config.latency = latency;
        config.workload.zipf_theta = 0.9;
        config.workload.sorted_access = true;
        ablation.Add(Row{engine, servers, latency, 0.9}, config);
      }
    }
  }
  ablation.Run();
  ablation.Each([&sorted](const Row& row, const harness::PointResult& point) {
    AddSpanRow(sorted, row, point);
  });
  std::printf("\nin-order access ablation (--sorted, zipf 0.9): ordered "
              "acquisition is deadlock-free,\nso the ordered policy never "
              "aborts while no-wait keeps restarting\n");
  sorted.Print();
  ablation.PrintSummary();
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "A16 extension: concurrency-control zoo — protocol x latency x "
      "contention",
      options);
  gtpl::bench::Run(options);
  return 0;
}
