// Figure 1 / §3.2 worked example: three clients, one hot item, exclusive
// access, requests landing in the same collection window. The paper counts
// 12 time units for g-2PL against 15 for s-2PL (a 20% reduction) with a
// 2-unit latency and 1-unit processing time.
//
// This bench reproduces the *mechanism* — the fused release+grant removes
// one network hop per hand-off — and reports completion time, message count
// and mean response for both protocols, plus a sweep over the number of
// queued clients showing the saving grow with the forward-list length.

#include "bench_common.h"
#include "exec/thread_pool.h"

namespace gtpl::bench {
namespace {

proto::SimConfig ExampleConfig(proto::Protocol protocol, int32_t clients) {
  proto::SimConfig config;
  config.protocol = protocol;
  config.num_clients = clients;
  config.latency = 2;
  config.workload.num_items = 1;
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 1;
  config.workload.read_prob = 0.0;
  config.workload.min_think = 1;
  config.workload.max_think = 1;
  config.workload.min_idle = 1000;  // one transaction per client
  config.workload.max_idle = 1000;
  config.measured_txns = clients;
  config.warmup_txns = 0;
  config.seed = 7;
  config.max_sim_time = 1'000'000;
  return config;
}

void Run(const harness::CliOptions& options) {
  harness::Table table({"clients", "s-2PL span", "g-2PL span", "reduction%",
                        "s-2PL msgs", "g-2PL msgs"});
  const std::vector<int32_t> kClients = {2, 3, 5, 10, 20};
  std::vector<proto::SimConfig> configs;
  for (int32_t clients : kClients) {
    configs.push_back(ExampleConfig(proto::Protocol::kS2pl, clients));
    configs.push_back(ExampleConfig(proto::Protocol::kG2pl, clients));
  }
  std::vector<proto::RunResult> results(configs.size());
  exec::ThreadPool pool(std::min(exec::ResolveJobs(options.jobs),
                                 static_cast<int>(configs.size())));
  pool.Run(static_cast<int64_t>(configs.size()), [&](int64_t i) {
    results[static_cast<size_t>(i)] =
        proto::RunSimulation(configs[static_cast<size_t>(i)]);
  });
  for (size_t i = 0; i < kClients.size(); ++i) {
    SimTime span[2];
    uint64_t msgs[2];
    for (int j = 0; j < 2; ++j) {
      const proto::RunResult& result = results[2 * i + j];
      // All clients start at t=1000; the span is when the last transaction
      // completed its processing (max response).
      span[j] = static_cast<SimTime>(result.response.max());
      msgs[j] = result.network.messages;
    }
    table.AddRow({std::to_string(kClients[i]), std::to_string(span[0]),
                  std::to_string(span[1]),
                  harness::Fmt(Improvement(static_cast<double>(span[0]),
                                           static_cast<double>(span[1])),
                               1),
                  std::to_string(msgs[0]), std::to_string(msgs[1])});
  }
  table.Print(options.csv_path);
  std::printf(
      "\nPaper (3 clients): 12 units (g-2PL) vs 15 units (s-2PL), 20%% "
      "reduction.\nThe hand-off saving is L per queued client; with 2-unit "
      "latency and\n1-unit processing the asymptotic reduction is 2/5 = "
      "40%% per hand-off.\n");
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "Figure 1 / §3.2 example: grouped hand-offs on one hot item", options);
  gtpl::bench::Run(options);
  return 0;
}
