#ifndef GTPL_OBS_METRICS_H_
#define GTPL_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace gtpl::obs {

/// One time-series sample: the value of one registered series at one
/// sampling instant. `series` indexes MetricsRegistry::names(); `shard` is
/// -1 for engine-global (or kernel) series and the shard index for
/// per-shard series.
struct MetricRow {
  SimTime time = 0;
  int32_t shard = -1;
  int32_t series = 0;
  int64_t value = 0;

  friend bool operator==(const MetricRow& a, const MetricRow& b) {
    return a.time == b.time && a.shard == b.shard && a.series == b.series &&
           a.value == b.value;
  }
};

/// A named sample read back from a metrics file (the series index is
/// resolved to its name so readers don't need the registry).
struct MetricSample {
  SimTime time = 0;
  int32_t shard = -1;
  std::string name;
  int64_t value = 0;
};

/// Registry of named gauges/counters sampled at a fixed simulated-time
/// interval (DESIGN.md §16). Registration order defines the series order
/// within each sampling instant, so two runs that register the same probes
/// produce byte-identical output files. Probes are read-only closures over
/// engine state: sampling never draws random numbers and never mutates the
/// engine, so enabling metrics cannot perturb results.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a probe. `name` is the series name (e.g. "locks_held");
  /// `shard` is -1 for global series. Returns the series index.
  int32_t Register(std::string name, int32_t shard,
                   std::function<int64_t()> probe);

  /// Appends one row per registered series, in registration order, stamped
  /// with `time`.
  void SampleAll(SimTime time);

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<MetricRow>& rows() const { return rows_; }
  std::vector<MetricRow> TakeRows() {
    std::vector<MetricRow> out = std::move(rows_);
    rows_.clear();
    return out;
  }
  std::vector<std::string> TakeNames() {
    std::vector<std::string> out = std::move(names_);
    names_.clear();
    return out;
  }

 private:
  struct Probe {
    int32_t shard;
    std::function<int64_t()> fn;
  };
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
  std::vector<MetricRow> rows_;
};

/// Metrics file formats behind simulate's --metrics-format flag.
enum class MetricsFormat {
  kCsv = 0,    // header `time,shard,metric,value`, one row per line
  kJsonl = 1,  // one {"t":..,"shard":..,"metric":"..","v":..} object per line
};

/// Writes rows as CSV with the fixed header `time,shard,metric,value`.
/// Output is byte-deterministic: integer-only values, series names from the
/// registry, rows in sample order.
void WriteMetricsCsv(const std::vector<std::string>& names,
                     const std::vector<MetricRow>& rows, std::ostream& out);

/// Serializes to a string (WriteMetricsCsv into a buffer).
std::string MetricsToCsv(const std::vector<std::string>& names,
                         const std::vector<MetricRow>& rows);

/// Writes rows as JSONL, one object per line, fixed key order.
void WriteMetricsJsonl(const std::vector<std::string>& names,
                       const std::vector<MetricRow>& rows, std::ostream& out);

/// Parses a CSV metrics file written by WriteMetricsCsv. Returns false on
/// the first malformed line; `error` gets a diagnostic when non-null.
bool ReadMetricsCsv(std::istream& in, std::vector<MetricSample>* samples,
                    std::string* error = nullptr);

}  // namespace gtpl::obs

#endif  // GTPL_OBS_METRICS_H_
