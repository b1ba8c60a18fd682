// Extension: sharded server group — server count x network latency for
// g-2PL and s-2PL (paper base workload, hash routing).
//
// The item space is partitioned across N simulated servers; transactions
// that touch more than one shard pay a client-coordinated two-phase commit
// (prepare + vote: two extra WAN rounds). Expected shape: with a single hot
// item pool, sharding buys no concurrency the protocols didn't already
// extract, so response time *rises* with server count at WAN latencies in
// proportion to the cross-server commit rate — quantifying the latency cost
// GeoTP-style middleware tries to hide. servers = 1 is the paper's
// single-server model (no transaction pays 2PC).

#include "bench_common.h"

namespace gtpl::bench {
namespace {

struct Row {
  proto::Protocol protocol;
  int32_t servers;
  SimTime latency;
};

void Run(const harness::CliOptions& options) {
  harness::Table table({"protocol", "servers", "latency", "resp", "abort%",
                        "xserver%", "parts", "msgs/commit", "ci%"});
  TagGrid<Row> grid(options);
  for (proto::Protocol protocol :
       {proto::Protocol::kS2pl, proto::Protocol::kG2pl}) {
    for (int32_t servers : {1, 2, 4, 8}) {
      for (SimTime latency : {1, 100, 500}) {
        proto::SimConfig config = PaperBaseConfig();
        harness::ApplyScale(options.scale, &config);
        config.protocol = protocol;
        config.latency = latency;
        config.num_servers = servers;
        grid.Add(Row{protocol, servers, latency}, config);
      }
    }
  }
  grid.Run();
  grid.Each([&table](const Row& row, const harness::PointResult& point) {
    table.AddRow({proto::ToString(row.protocol), std::to_string(row.servers),
                  std::to_string(row.latency),
                  harness::Fmt(point.response.mean, 0),
                  harness::Fmt(point.abort_pct.mean, 1),
                  harness::Fmt(point.cross_server_pct, 1),
                  harness::Fmt(point.mean_commit_participants, 2),
                  harness::Fmt(point.mean_messages_per_commit, 1),
                  harness::Fmt(100 * point.response.relative_precision, 1)});
  });
  table.Print(options.csv_path);
  grid.PrintSummary();
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "Extension: sharded servers — server count x latency, 2PC commit cost",
      options);
  gtpl::bench::Run(options);
  return 0;
}
