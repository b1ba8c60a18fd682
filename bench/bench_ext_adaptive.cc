// Extension A14: adaptive collection windows — the per-item AIMD cap
// controller versus static forward-list caps, across a contention sweep
// (Zipf skew, then client scaling) in a write-heavy aged workload.
//
// With aging on, the static cap is a genuine tradeoff: an aged requester
// aborts every opposing window member, so a long window on a hot item is
// a large abort blast radius — abort%% *rises* with the cap — while a
// short window forfeits batching and response time falls as the cap
// grows. A single static value can only pick one end. The controller
// sets the cap per item from live abort feedback: a deadlock-avoidance
// rejection or aging abort attributed to an item shrinks its cap
// multiplicatively; windows that complete cleanly grow it back additively
// after a hysteresis interval. Hot items settle short, cold items stay
// long: at high skew the adaptive run beats the abort-optimal static cap
// (cap 1) on *both* axes — lower abort%% and lower response — and the
// telemetry columns show the mean effective cap settling between the
// static extremes.

#include "bench_common.h"

namespace gtpl::bench {
namespace {

// 0 = unbounded static cap; -1 marks the adaptive row.
constexpr int32_t kAdaptive = -1;
const std::vector<int32_t> kCaps = {1, 2, 3, 5, 10, 0, kAdaptive};

proto::SimConfig WithCap(proto::SimConfig config, int32_t cap) {
  if (cap == kAdaptive) {
    config.g2pl.max_forward_list_length = 0;
    config.g2pl.adaptive_window = true;
  } else {
    config.g2pl.max_forward_list_length = cap;
  }
  return config;
}

std::string CapName(int32_t cap) {
  if (cap == kAdaptive) return "adaptive";
  if (cap == 0) return "inf";
  return std::to_string(cap);
}

void AddRow(harness::Table* table, const std::string& point_label,
            int32_t cap, const harness::PointResult& point) {
  const bool adaptive = cap == kAdaptive;
  table->AddRow({point_label, CapName(cap),
                 harness::Fmt(point.abort_pct.mean, 2),
                 harness::Fmt(point.response.mean, 0),
                 harness::Fmt(point.fl_length.mean, 2),
                 adaptive ? harness::Fmt(point.mean_effective_cap, 2) : "-",
                 adaptive ? harness::Fmt(point.final_effective_cap, 2) : "-",
                 adaptive ? harness::Fmt(point.mean_cap_increases, 0) : "-",
                 adaptive ? harness::Fmt(point.mean_cap_decreases, 0) : "-"});
}

/// The write-heavy aged base point where the cap tradeoff is live.
proto::SimConfig AgedBaseConfig(const harness::CliOptions& options) {
  proto::SimConfig config = PaperBaseConfig();
  harness::ApplyScale(options.scale, &config);
  config.protocol = proto::Protocol::kG2pl;
  config.workload.read_prob = 0.2;
  config.g2pl.aging_threshold = 2;
  return config;
}

void RunSkewGrid(const harness::CliOptions& options) {
  std::printf(
      "\n-- Zipf skew x cap (50 clients, latency 500, pr 0.2, aging 2) --\n");
  harness::Table table({"zipf", "cap", "abort%", "resp", "mean FL",
                        "eff-cap", "final-cap", "grows", "shrinks"});
  Grid grid(options);
  struct Row {
    double zipf;
    int32_t cap;
    size_t index;
  };
  std::vector<Row> rows;
  for (double zipf : {0.0, 0.6, 1.1, 1.3}) {
    for (int32_t cap : kCaps) {
      proto::SimConfig config = AgedBaseConfig(options);
      config.workload.zipf_theta = zipf;
      rows.push_back({zipf, cap, grid.Add(WithCap(config, cap))});
    }
  }
  grid.Run();
  for (const Row& row : rows) {
    AddRow(&table, harness::Fmt(row.zipf, 1), row.cap, grid.Result(row.index));
  }
  table.Print(options.csv_path);
  grid.PrintSummary();
}

void RunClientGrid(const harness::CliOptions& options) {
  std::printf(
      "\n-- client scaling x cap (zipf 1.1, latency 500, pr 0.2, aging 2) "
      "--\n");
  harness::Table table({"clients", "cap", "abort%", "resp", "mean FL",
                        "eff-cap", "final-cap", "grows", "shrinks"});
  Grid grid(options);
  struct Row {
    int32_t clients;
    int32_t cap;
    size_t index;
  };
  std::vector<Row> rows;
  for (int32_t clients : {20, 50, 80}) {
    for (int32_t cap : kCaps) {
      proto::SimConfig config = AgedBaseConfig(options);
      config.num_clients = clients;
      config.workload.zipf_theta = 1.1;
      rows.push_back({clients, cap, grid.Add(WithCap(config, cap))});
    }
  }
  grid.Run();
  for (const Row& row : rows) {
    AddRow(&table, std::to_string(row.clients), row.cap,
           grid.Result(row.index));
  }
  table.Print();  // --csv writes the first table only
  grid.PrintSummary();
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "Extension A14: adaptive collection windows vs static forward-list "
      "caps",
      options);
  gtpl::bench::RunSkewGrid(options);
  gtpl::bench::RunClientGrid(options);
  return 0;
}
