// Tables 1 & 2 of the paper: simulation parameters and the simulated
// networking environments. This bench prints the defaults the other bench
// binaries run with, so the reproduction setup is auditable. It takes the
// common bench flags; `--csv=PATH` writes Table 1.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "harness/table.h"
#include "net/latency_model.h"
#include "protocols/config.h"

namespace gtpl {
namespace {

void PrintTable1(const std::string& csv_path) {
  const proto::SimConfig config;
  harness::Table table({"Parameter", "Value"});
  table.AddRow({"Number of servers", "1"});
  table.AddRow({"Number of clients", "varying (default 50)"});
  table.AddRow({"Number of hot data items",
                std::to_string(config.workload.num_items)});
  table.AddRow({"Transaction execution pattern", "Sequential"});
  // No comma in a cell: the CSV writer does not quote.
  table.AddRow({"Data items accessed per transaction",
                std::to_string(config.workload.min_items_per_txn) + " - " +
                    std::to_string(config.workload.max_items_per_txn) +
                    " distinct (uniform)"});
  table.AddRow({"Percentage of read accesses", "0.00 - 1.00"});
  table.AddRow({"Network latency", "1 - 750 time units (Table 2)"});
  table.AddRow({"Computation time per operation",
                std::to_string(config.workload.min_think) + " - " +
                    std::to_string(config.workload.max_think) +
                    " time units"});
  table.AddRow({"Idle time between transactions",
                std::to_string(config.workload.min_idle) + " - " +
                    std::to_string(config.workload.max_idle) +
                    " time units"});
  table.AddRow({"Multiprogramming level at clients", "1"});
  std::printf("Table 1: simulation parameters\n");
  table.Print(csv_path);
}

void PrintTable2() {
  harness::Table table({"Network type", "Abbrev.", "Latency (time units)"});
  for (const net::NetworkEnvironment& env : net::PaperEnvironments()) {
    table.AddRow({env.name, env.abbreviation, std::to_string(env.latency)});
  }
  std::printf("\nTable 2: networking environments simulated\n");
  table.Print();
}

}  // namespace
}  // namespace gtpl

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::PrintTable1(options.csv_path);
  gtpl::PrintTable2();
  std::printf(
      "\nTime-unit conversion: with 1 unit = 0.5 ms the latencies span "
      "0.5 ms (ss-LAN) to 375 ms (l-WAN), realistic up to satellite WANs.\n");
  return 0;
}
