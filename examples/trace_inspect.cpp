// trace_inspect: post-hoc analysis of a structured observability trace
// (JSONL, written by `simulate --trace=FILE`). Prints the event census, the
// committed-transaction latency breakdown, the slowest transactions, and
// the most contended items; --check-invariants replays the trace's events
// through the protocol-invariant checkers with no live run.
//
//   ./build/examples/simulate --protocol=g2pl --txns=500 --trace=/tmp/t.jsonl
//   ./build/examples/trace_inspect /tmp/t.jsonl --top=10 --check-invariants

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "harness/table.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/invariants.h"

namespace {

using gtpl::obs::EventKind;
using gtpl::obs::TraceEvent;

struct SlowTxn {
  gtpl::TxnId txn = gtpl::kInvalidTxn;
  gtpl::SiteId site = -1;
  int64_t response = 0;
  int64_t lock_wait = 0;
  int64_t propagation = 0;
  int64_t queueing = 0;
  int64_t execution = 0;
  int64_t commit = 0;
};

struct ItemStats {
  int64_t grants = 0;
  int64_t lock_wait = 0;
};

std::string Pct(int64_t part, int64_t total) {
  if (total <= 0) return "-";
  return gtpl::harness::Fmt(100.0 * static_cast<double>(part) /
                                static_cast<double>(total),
                            1) +
         "%";
}

/// Replays a metrics CSV (simulate --metrics-out): per-series sample count,
/// min/max/last value, over the full sampled time range. Returns false on a
/// malformed file.
bool InspectMetrics(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::vector<gtpl::obs::MetricSample> samples;
  std::string error;
  if (!gtpl::obs::ReadMetricsCsv(in, &samples, &error)) {
    std::fprintf(stderr, "malformed metrics %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  std::printf("%s: %zu samples", path.c_str(), samples.size());
  if (!samples.empty()) {
    std::printf(", sim time [%lld, %lld]",
                static_cast<long long>(samples.front().time),
                static_cast<long long>(samples.back().time));
  }
  std::printf("\n\n");
  struct SeriesStats {
    int64_t count = 0;
    int64_t min = 0;
    int64_t max = 0;
    int64_t last = 0;
  };
  // Keyed by (name, shard); std::map iteration gives a stable print order.
  std::map<std::pair<std::string, int32_t>, SeriesStats> series;
  for (const gtpl::obs::MetricSample& sample : samples) {
    SeriesStats& stats = series[{sample.name, sample.shard}];
    if (stats.count == 0) {
      stats.min = sample.value;
      stats.max = sample.value;
    } else {
      stats.min = std::min(stats.min, sample.value);
      stats.max = std::max(stats.max, sample.value);
    }
    stats.last = sample.value;
    ++stats.count;
  }
  gtpl::harness::Table table(
      {"metric", "shard", "samples", "min", "max", "last"});
  for (const auto& [key, stats] : series) {
    table.AddRow({key.first,
                  key.second < 0 ? std::string("-")
                                 : std::to_string(key.second),
                  std::to_string(stats.count), std::to_string(stats.min),
                  std::to_string(stats.max), std::to_string(stats.last)});
  }
  table.Print();
  std::printf("\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string metrics_path;
  int32_t top = 10;
  bool check_invariants = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [TRACE.jsonl] [--top=N] [--check-invariants] "
                   "[--metrics=FILE.csv]\n",
                   argv[0]);
      return 0;
    } else if (arg.rfind("--top=", 0) == 0) {
      if (!gtpl::harness::ParseInt32Value(arg.c_str() + 6, &top) || top < 1) {
        std::fprintf(stderr, "invalid --top value: %s\n", arg.c_str() + 6);
        return 2;
      }
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics="));
      if (metrics_path.empty()) {
        std::fprintf(stderr, "invalid --metrics value (empty path)\n");
        return 2;
      }
    } else if (arg == "--check-invariants") {
      check_invariants = true;
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty() && metrics_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s [TRACE.jsonl] [--top=N] [--check-invariants] "
                 "[--metrics=FILE.csv]\n",
                 argv[0]);
    return 2;
  }
  if (path.empty()) {
    // Metrics-only invocation.
    return InspectMetrics(metrics_path) ? 0 : 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::vector<TraceEvent> events;
  std::string error;
  if (!gtpl::obs::ReadJsonl(in, &events, &error)) {
    std::fprintf(stderr, "malformed trace %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("%s: %zu events", path.c_str(), events.size());
  if (!events.empty()) {
    std::printf(", sim time [%lld, %lld]",
                static_cast<long long>(events.front().time),
                static_cast<long long>(events.back().time));
  }
  std::printf("\n\n");

  // Event census.
  std::map<std::string, int64_t> census;
  for (const TraceEvent& event : events) {
    ++census[gtpl::obs::ToString(event.kind)];
  }
  gtpl::harness::Table census_table({"event", "count"});
  for (const auto& [name, count] : census) {
    census_table.AddRow({name, std::to_string(count)});
  }
  census_table.Print();
  std::printf("\n");

  // Latency breakdown over committed transactions + slowest list + per-item
  // contention (total lock wait accumulated by grants of that item).
  std::vector<SlowTxn> commits;
  std::map<gtpl::ItemId, ItemStats> items;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kTxnCommit) {
      SlowTxn txn;
      txn.txn = event.txn;
      txn.site = event.site;
      txn.response = event.payload;
      txn.lock_wait = event.d0;
      txn.propagation = event.d1;
      txn.queueing = event.d2;
      txn.execution = event.d3;
      txn.commit = event.d4;
      commits.push_back(txn);
    } else if (event.kind == EventKind::kLockGrant &&
               event.item != gtpl::kInvalidItem) {
      ItemStats& stats = items[event.item];
      ++stats.grants;
      stats.lock_wait += event.d0;
    }
  }
  if (!commits.empty()) {
    SlowTxn total;
    for (const SlowTxn& txn : commits) {
      total.response += txn.response;
      total.lock_wait += txn.lock_wait;
      total.propagation += txn.propagation;
      total.queueing += txn.queueing;
      total.execution += txn.execution;
      total.commit += txn.commit;
    }
    const auto n = static_cast<double>(commits.size());
    gtpl::harness::Table phases({"phase", "mean", "share"});
    phases.AddRow({"lock wait",
                   gtpl::harness::Fmt(static_cast<double>(total.lock_wait) / n, 1),
                   Pct(total.lock_wait, total.response)});
    phases.AddRow({"propagation",
                   gtpl::harness::Fmt(static_cast<double>(total.propagation) / n, 1),
                   Pct(total.propagation, total.response)});
    phases.AddRow({"transmission+queueing",
                   gtpl::harness::Fmt(static_cast<double>(total.queueing) / n, 1),
                   Pct(total.queueing, total.response)});
    phases.AddRow({"execution (think)",
                   gtpl::harness::Fmt(static_cast<double>(total.execution) / n, 1),
                   Pct(total.execution, total.response)});
    phases.AddRow({"commit phase",
                   gtpl::harness::Fmt(static_cast<double>(total.commit) / n, 1),
                   Pct(total.commit, total.response)});
    phases.AddRow({"response",
                   gtpl::harness::Fmt(static_cast<double>(total.response) / n, 1),
                   "100.0%"});
    std::printf("latency breakdown over %zu committed transactions:\n",
                commits.size());
    phases.Print();
    std::printf("\n");

    std::sort(commits.begin(), commits.end(),
              [](const SlowTxn& a, const SlowTxn& b) {
                if (a.response != b.response) return a.response > b.response;
                return a.txn < b.txn;
              });
    const size_t show = std::min(commits.size(), static_cast<size_t>(top));
    gtpl::harness::Table slow(
        {"txn", "site", "response", "lock wait", "network", "think", "commit"});
    for (size_t i = 0; i < show; ++i) {
      const SlowTxn& txn = commits[i];
      slow.AddRow({std::to_string(txn.txn), std::to_string(txn.site),
                   std::to_string(txn.response), std::to_string(txn.lock_wait),
                   std::to_string(txn.propagation + txn.queueing),
                   std::to_string(txn.execution), std::to_string(txn.commit)});
    }
    std::printf("top %zu slowest committed transactions:\n", show);
    slow.Print();
    std::printf("\n");
  }
  if (!items.empty()) {
    std::vector<std::pair<gtpl::ItemId, ItemStats>> ranked(items.begin(),
                                                           items.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second.lock_wait != b.second.lock_wait) {
                  return a.second.lock_wait > b.second.lock_wait;
                }
                return a.first < b.first;
              });
    const size_t show = std::min(ranked.size(), static_cast<size_t>(top));
    gtpl::harness::Table contention(
        {"item", "grants", "total lock wait", "mean lock wait"});
    for (size_t i = 0; i < show; ++i) {
      const auto& [item, stats] = ranked[i];
      contention.AddRow(
          {std::to_string(item), std::to_string(stats.grants),
           std::to_string(stats.lock_wait),
           gtpl::harness::Fmt(static_cast<double>(stats.lock_wait) /
                                  static_cast<double>(stats.grants),
                              1)});
    }
    std::printf("top %zu contended items (by total lock wait):\n", show);
    contention.Print();
    std::printf("\n");
  }

  if (!metrics_path.empty() && !InspectMetrics(metrics_path)) return 2;

  if (check_invariants) {
    std::string explanation;
    if (gtpl::proto::CheckProtocolInvariants(events, &explanation)) {
      std::printf("invariants: OK (%zu trace events checked)\n",
                  events.size());
    } else {
      std::printf("invariants: VIOLATED — %s\n", explanation.c_str());
      return 1;
    }
  }
  return 0;
}
