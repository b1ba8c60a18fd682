// Extension: finite link bandwidth — bandwidth x latency for g-2PL and
// s-2PL under the link-level transport (DESIGN.md §9: transmission delay +
// per-endpoint NIC FIFO queues), plus a cross-traffic load sweep.
//
// The paper assumes message size is a non-issue at gigabit rates; this
// bench quantifies where that assumption breaks. Two regimes emerge:
//
//  * At WAN latencies finite bandwidth barely moves either protocol
//    (propagation dominates transmission) and g-2PL keeps the advantage
//    the paper measures. The centralized server NIC is also the hotspot
//    for s-2PL — every grant ships a data copy from one site — so at
//    50 clients contention there hurts s-2PL *more*, not less.
//
//  * At LAN latencies with tight bandwidth and a small client group the
//    advantage inverts: g-2PL's client-to-client migrations are
//    data-heavy (kDataPayload + forward-list riders per hop) while
//    s-2PL's extra rounds are cheap when propagation is ~free, so s-2PL
//    wins — the regime the paper's "size is less of a concern" caveat
//    excludes by assumption.
//
// bandwidth = 0 rows are the infinite-bandwidth reference (bit-identical
// to the paper's pure-propagation model; see bandwidth_equivalence_test).

#include "bench_common.h"

namespace gtpl::bench {
namespace {

void RunBandwidthGrid(const harness::CliOptions& options) {
  std::printf("\n-- bandwidth x latency (50 clients, NIC queues on) --\n");
  harness::Table table({"bw", "latency", "s2pl_resp", "g2pl_resp", "g2pl_adv%",
                        "s2pl_qdelay", "g2pl_qdelay", "s2pl_util%",
                        "g2pl_util%"});
  Grid grid(options);
  struct Row {
    double bandwidth;
    SimTime latency;
    size_t s2pl;
    size_t g2pl;
  };
  std::vector<Row> rows;
  for (double bandwidth : {0.0, 8.0, 2.0, 0.5, 0.125}) {
    for (SimTime latency : {1, 100, 500}) {
      proto::SimConfig config = PaperBaseConfig();
      harness::ApplyScale(options.scale, &config);
      config.latency = latency;
      config.link_bandwidth = bandwidth;
      config.nic_queue = bandwidth > 0.0;
      config.protocol = proto::Protocol::kS2pl;
      const size_t s2pl = grid.Add(config);
      config.protocol = proto::Protocol::kG2pl;
      rows.push_back({bandwidth, latency, s2pl, grid.Add(config)});
    }
  }
  grid.Run();
  for (const Row& row : rows) {
    const harness::PointResult& s2pl = grid.Result(row.s2pl);
    const harness::PointResult& g2pl = grid.Result(row.g2pl);
    table.AddRow({harness::Fmt(row.bandwidth, 3),
                  std::to_string(row.latency),
                  harness::Fmt(s2pl.response.mean, 0),
                  harness::Fmt(g2pl.response.mean, 0),
                  harness::Fmt(
                      Improvement(s2pl.response.mean, g2pl.response.mean), 1),
                  harness::Fmt(s2pl.mean_queue_delay, 1),
                  harness::Fmt(g2pl.mean_queue_delay, 1),
                  harness::Fmt(100 * s2pl.mean_link_utilization, 1),
                  harness::Fmt(100 * g2pl.mean_link_utilization, 1)});
  }
  table.Print(options.csv_path);
  grid.PrintSummary();
}

void RunCrossoverGrid(const harness::CliOptions& options) {
  std::printf("\n-- LAN crossover (12 clients, latency 1, NIC queues on) --\n");
  harness::Table table({"bw", "s2pl_resp", "g2pl_resp", "g2pl_adv%",
                        "s2pl_p99q", "g2pl_p99q", "s2pl_util%", "g2pl_util%"});
  Grid grid(options);
  struct Row {
    double bandwidth;
    size_t s2pl;
    size_t g2pl;
  };
  std::vector<Row> rows;
  for (double bandwidth : {0.0, 1.0, 0.25, 0.0625, 0.03125}) {
    proto::SimConfig config = PaperBaseConfig();
    harness::ApplyScale(options.scale, &config);
    config.num_clients = 12;
    config.latency = 1;
    config.link_bandwidth = bandwidth;
    config.nic_queue = bandwidth > 0.0;
    config.protocol = proto::Protocol::kS2pl;
    const size_t s2pl = grid.Add(config);
    config.protocol = proto::Protocol::kG2pl;
    rows.push_back({bandwidth, s2pl, grid.Add(config)});
  }
  grid.Run();
  for (const Row& row : rows) {
    const harness::PointResult& s2pl = grid.Result(row.s2pl);
    const harness::PointResult& g2pl = grid.Result(row.g2pl);
    table.AddRow({harness::Fmt(row.bandwidth, 5),
                  harness::Fmt(s2pl.response.mean, 0),
                  harness::Fmt(g2pl.response.mean, 0),
                  harness::Fmt(
                      Improvement(s2pl.response.mean, g2pl.response.mean), 1),
                  harness::Fmt(s2pl.queue_delay_p99, 0),
                  harness::Fmt(g2pl.queue_delay_p99, 0),
                  harness::Fmt(100 * s2pl.mean_link_utilization, 1),
                  harness::Fmt(100 * g2pl.mean_link_utilization, 1)});
  }
  table.Print();  // --csv writes the first table only
  grid.PrintSummary();
}

void RunCrossTrafficGrid(const harness::CliOptions& options) {
  std::printf(
      "\n-- background cross-traffic (50 clients, latency 100, bw 1) --\n");
  harness::Table table({"load", "s2pl_resp", "g2pl_resp", "g2pl_adv%",
                        "s2pl_util%", "g2pl_util%"});
  Grid grid(options);
  struct Row {
    double load;
    size_t s2pl;
    size_t g2pl;
  };
  std::vector<Row> rows;
  for (double load : {0.0, 0.4, 0.8}) {
    proto::SimConfig config = PaperBaseConfig();
    harness::ApplyScale(options.scale, &config);
    config.latency = 100;
    config.link_bandwidth = 1.0;
    config.nic_queue = true;
    config.cross_traffic_load = load;
    config.protocol = proto::Protocol::kS2pl;
    const size_t s2pl = grid.Add(config);
    config.protocol = proto::Protocol::kG2pl;
    rows.push_back({load, s2pl, grid.Add(config)});
  }
  grid.Run();
  for (const Row& row : rows) {
    const harness::PointResult& s2pl = grid.Result(row.s2pl);
    const harness::PointResult& g2pl = grid.Result(row.g2pl);
    table.AddRow({harness::Fmt(row.load, 1),
                  harness::Fmt(s2pl.response.mean, 0),
                  harness::Fmt(g2pl.response.mean, 0),
                  harness::Fmt(
                      Improvement(s2pl.response.mean, g2pl.response.mean), 1),
                  harness::Fmt(100 * s2pl.mean_link_utilization, 1),
                  harness::Fmt(100 * g2pl.mean_link_utilization, 1)});
  }
  table.Print();  // --csv writes the first table only
  grid.PrintSummary();
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "Extension: finite link bandwidth — transmission + NIC queueing cost",
      options);
  gtpl::bench::RunBandwidthGrid(options);
  gtpl::bench::RunCrossoverGrid(options);
  gtpl::bench::RunCrossTrafficGrid(options);
  return 0;
}
