#ifndef GTPL_BENCH_BENCH_COMMON_H_
#define GTPL_BENCH_BENCH_COMMON_H_

// Shared plumbing for the figure-reproduction bench binaries.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "protocols/config.h"

namespace gtpl::bench {

/// Deterministic parallel driver for a bench's (config-point × replication)
/// grid. Queue every point with Add() while laying out the table, call Run()
/// once to fan the whole grid out across --jobs worker threads, then read
/// the PointResults back by the indices Add() returned. Results are
/// bit-identical at any job count; only the wall clock changes.
class Grid {
 public:
  explicit Grid(const harness::CliOptions& options) : options_(options) {}

  /// Queues one configuration point; returns its result index.
  size_t Add(const proto::SimConfig& config) {
    configs_.push_back(config);
    return configs_.size() - 1;
  }

  /// Runs every queued point (all replications) across the worker threads.
  void Run() {
    result_ = harness::RunSweep(configs_, options_.scale.runs, options_.jobs);
  }

  const harness::PointResult& Result(size_t index) const {
    return result_.points.at(index);
  }

  /// The closing "grid completed" line every bench prints after its tables.
  void PrintSummary() const {
    double slowest = 0.0;
    for (const harness::PointResult& point : result_.points) {
      slowest = std::max(slowest, point.wall_seconds);
    }
    std::printf(
        "\ngrid: %zu points x %d replications completed in %.2f s on %d "
        "thread(s)\n      (serial-equivalent %.2f s, speedup %.2fx, slowest "
        "point %.2f s)\n",
        configs_.size(), options_.scale.runs, result_.wall_seconds,
        result_.jobs,
        result_.serial_seconds,
        result_.wall_seconds > 0.0
            ? result_.serial_seconds / result_.wall_seconds
            : 0.0,
        slowest);
  }

 private:
  harness::CliOptions options_;
  std::vector<proto::SimConfig> configs_;
  harness::SweepResult result_;
};

/// Grid plus per-row sweep coordinates: most benches tag every queued point
/// with the sweep coordinates its table row needs (protocol, latency, ...),
/// run the grid, then zip tags with results. TagGrid owns that
/// tag/index/rows boilerplate so benches stop copying it.
template <typename Tag>
class TagGrid {
 public:
  explicit TagGrid(const harness::CliOptions& options) : grid_(options) {}

  /// Queues one configuration point under its row tag.
  void Add(const Tag& tag, const proto::SimConfig& config) {
    entries_.push_back(Entry{tag, grid_.Add(config)});
  }

  /// Runs every queued point across the worker threads.
  void Run() { grid_.Run(); }

  /// Calls fn(tag, point_result) for every queued point, in Add() order.
  template <typename Fn>
  void Each(Fn&& fn) const {
    for (const Entry& entry : entries_) {
      fn(entry.tag, grid_.Result(entry.index));
    }
  }

  void PrintSummary() const { grid_.PrintSummary(); }

 private:
  struct Entry {
    Tag tag;
    size_t index;
  };

  Grid grid_;
  std::vector<Entry> entries_;
};

/// The paper's Table 1 base configuration: 50 clients, 25 hot items, 1-5
/// items per transaction, think U[1,3], idle U[2,10], MPL 1.
inline proto::SimConfig PaperBaseConfig() {
  proto::SimConfig config;
  config.num_clients = 50;
  config.latency = 500;
  // A generous safety horizon so a pathological configuration reports
  // timed_out instead of running forever.
  config.max_sim_time = 60'000'000'000;
  return config;
}

/// Parses flags or exits with usage. A --csv path that cannot be written
/// exits 2 here, before any grid runs, with the line Table::Print prints
/// for a failed write: one byte is written and flushed, so a path that
/// opens but refuses writes (a full device) fails too, and the file is then
/// truncated back to empty.
inline harness::CliOptions ParseOrDie(int argc, char** argv) {
  harness::CliOptions options;
  const Status status = harness::ParseCli(argc, argv, &options);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], status.message().c_str());
    std::exit(2);
  }
  if (!options.csv_path.empty()) {
    std::ofstream probe(options.csv_path);
    const bool writable = probe && probe.put('\n').flush();
    probe.close();
    if (!writable || !std::ofstream(options.csv_path)) {
      std::fprintf(stderr, "cannot write CSV file %s\n",
                   options.csv_path.c_str());
      std::exit(2);
    }
  }
  return options;
}

/// Percentage improvement of g-2PL over s-2PL (positive = g-2PL faster).
inline double Improvement(double s2pl, double g2pl) {
  if (s2pl == 0.0) return 0.0;
  return 100.0 * (s2pl - g2pl) / s2pl;
}

}  // namespace gtpl::bench

#endif  // GTPL_BENCH_BENCH_COMMON_H_
