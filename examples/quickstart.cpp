// Quickstart: reproduce the paper's §3.2 worked example — three clients,
// one hot item, exclusive access, all requests landing in one collection
// window — and show how g-2PL's client-to-client migration removes one
// network hop per lock hand-off compared to s-2PL.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "obs/trace.h"
#include "protocols/config.h"
#include "protocols/engine.h"

namespace {

gtpl::proto::SimConfig ExampleConfig(gtpl::proto::Protocol protocol) {
  gtpl::proto::SimConfig config;
  config.protocol = protocol;
  config.num_clients = 3;
  config.latency = 2;  // the example's "2 units of network latency"
  config.workload.num_items = 1;
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 1;
  config.workload.read_prob = 0.0;  // exclusive access
  config.workload.min_think = 1;    // "1 unit of processing time"
  config.workload.max_think = 1;
  config.workload.min_idle = 1000;  // one transaction per client, no refill
  config.workload.max_idle = 1000;
  config.measured_txns = 3;
  config.warmup_txns = 0;
  config.seed = 7;
  config.obs_trace = true;
  config.max_sim_time = 20000;
  return config;
}

std::string SiteName(gtpl::SiteId site) {
  if (site == gtpl::kServerSite) return "server";
  return "client" + std::to_string(site);
}

void RunAndReport(gtpl::proto::Protocol protocol) {
  const gtpl::proto::SimConfig config = ExampleConfig(protocol);
  const gtpl::proto::RunResult result = gtpl::proto::RunSimulation(config);
  std::printf("--- %s ---\n", gtpl::proto::ToString(protocol));
  // One line per kMsgSend. Latency is uniform and the link model is off, so
  // every message lands exactly `latency` after it was sent — including the
  // last one, still in flight when the run stops.
  long long base = -1;
  for (const gtpl::obs::TraceEvent& event : result.obs_trace) {
    if (event.kind != gtpl::obs::EventKind::kMsgSend) continue;
    const long long sent = static_cast<long long>(event.time);
    if (base < 0) base = sent;
    std::printf("  t=%3lld -> t=%3lld  %-8s -> %-8s  %s\n", sent - base,
                sent + static_cast<long long>(config.latency) - base,
                SiteName(event.site).c_str(), SiteName(event.peer).c_str(),
                event.label.c_str());
  }
  std::printf(
      "%llu messages; mean transaction response %.1f units "
      "(min %.0f, max %.0f)\n\n",
      static_cast<unsigned long long>(result.network.messages),
      result.response.mean(), result.response.min(), result.response.max());
}

}  // namespace

int main() {
  std::printf(
      "Paper §3.2 example: 3 clients, 1 hot item, exclusive access,\n"
      "latency = 2 units, processing = 1 unit per transaction.\n"
      "s-2PL pays release->server + grant->client (2 hops) between\n"
      "consecutive holders; g-2PL migrates the item client-to-client\n"
      "(1 hop), cutting total execution time by ~20%%.\n\n");
  RunAndReport(gtpl::proto::Protocol::kS2pl);
  RunAndReport(gtpl::proto::Protocol::kG2pl);
  return 0;
}
