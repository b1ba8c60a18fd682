// Extension A15: committed-transaction latency breakdown — where does the
// response time of g-2PL vs s-2PL actually go as the WAN stretches?
//
// The observability spans (DESIGN.md §11) decompose every committed
// transaction's response time into five contiguous phases: lock wait,
// propagation, transmission+queueing, execution (think), and the commit
// phase. This bench sweeps one-way latency for both protocols and prints
// the phase means plus the share of response spent on locks + the network
// (lock wait + propagation + queueing), the cost the paper's g-2PL design
// targets. The expectation, quantified here: as latency grows, s-2PL's
// response becomes dominated by lock wait (grants serialized through the
// remote server queue) while g-2PL converts most of that into direct
// client-to-client propagation — the mechanism behind Figure 2-4's gap.
//
// A second grid repeats the comparison under finite bandwidth so the
// transmission+queueing column is exercised too.

#include "bench_common.h"

namespace gtpl::bench {
namespace {

const char* ProtocolName(proto::Protocol protocol) {
  return protocol == proto::Protocol::kG2pl ? "g2pl" : "s2pl";
}

void AddBreakdownRow(harness::Table* table, const std::string& head,
                     proto::Protocol protocol,
                     const harness::PointResult& point) {
  const double resp = point.response.mean;
  const double contested =
      point.mean_lock_wait + point.mean_propagation + point.mean_queueing;
  table->AddRow({head, ProtocolName(protocol),
                 harness::Fmt(resp, 0),
                 harness::Fmt(point.mean_lock_wait, 0),
                 harness::Fmt(point.mean_propagation, 0),
                 harness::Fmt(point.mean_queueing, 0),
                 harness::Fmt(point.mean_execution, 0),
                 harness::Fmt(point.mean_commit_phase, 0),
                 harness::Fmt(resp > 0.0 ? 100.0 * contested / resp : 0.0, 1),
                 harness::Fmt(point.response_p99, 0)});
}

void RunLatencyBreakdownGrid(const harness::CliOptions& options) {
  std::printf("\n-- phase breakdown x one-way latency (50 clients) --\n");
  harness::Table table({"latency", "proto", "resp", "lockw", "prop", "queue",
                        "think", "commit", "lock+net%", "resp_p99"});
  Grid grid(options);
  struct Row {
    SimTime latency;
    size_t s2pl;
    size_t g2pl;
  };
  std::vector<Row> rows;
  for (SimTime latency : {1, 250, 1000, 4000}) {
    proto::SimConfig config = PaperBaseConfig();
    harness::ApplyScale(options.scale, &config);
    config.latency = latency;
    config.protocol = proto::Protocol::kS2pl;
    const size_t s2pl = grid.Add(config);
    config.protocol = proto::Protocol::kG2pl;
    rows.push_back({latency, s2pl, grid.Add(config)});
  }
  grid.Run();
  for (const Row& row : rows) {
    AddBreakdownRow(&table, std::to_string(row.latency),
                    proto::Protocol::kS2pl, grid.Result(row.s2pl));
    AddBreakdownRow(&table, std::to_string(row.latency),
                    proto::Protocol::kG2pl, grid.Result(row.g2pl));
  }
  table.Print(options.csv_path);
  grid.PrintSummary();
}

void RunBandwidthBreakdownGrid(const harness::CliOptions& options) {
  std::printf(
      "\n-- phase breakdown x bandwidth (latency 250, NIC queues on) --\n");
  harness::Table table({"bw", "proto", "resp", "lockw", "prop", "queue",
                        "think", "commit", "lock+net%", "resp_p99"});
  Grid grid(options);
  struct Row {
    double bandwidth;
    size_t s2pl;
    size_t g2pl;
  };
  std::vector<Row> rows;
  for (double bandwidth : {0.0, 2.0, 0.25}) {
    proto::SimConfig config = PaperBaseConfig();
    harness::ApplyScale(options.scale, &config);
    config.latency = 250;
    config.link_bandwidth = bandwidth;
    config.nic_queue = bandwidth > 0.0;
    config.protocol = proto::Protocol::kS2pl;
    const size_t s2pl = grid.Add(config);
    config.protocol = proto::Protocol::kG2pl;
    rows.push_back({bandwidth, s2pl, grid.Add(config)});
  }
  grid.Run();
  for (const Row& row : rows) {
    AddBreakdownRow(&table, harness::Fmt(row.bandwidth, 2),
                    proto::Protocol::kS2pl, grid.Result(row.s2pl));
    AddBreakdownRow(&table, harness::Fmt(row.bandwidth, 2),
                    proto::Protocol::kG2pl, grid.Result(row.g2pl));
  }
  table.Print();  // --csv writes the first table only
  grid.PrintSummary();
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "Extension A15: committed-transaction latency breakdown by phase",
      options);
  gtpl::bench::RunLatencyBreakdownGrid(options);
  gtpl::bench::RunBandwidthBreakdownGrid(options);
  return 0;
}
