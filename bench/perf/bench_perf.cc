// bench_perf: host cost of the simulator on four canonical workloads, end
// to end and per layer (bench/perf/README.md).
//
// Every simulation the parent measures runs in a child process (this binary
// re-executed with the internal --child flag), one child at a time. Set-up
// runs each get a fresh child. The timed runs of one repetition share a
// child (RunTimed): after untimed warm-up runs, which also give the peak RSS
// and the simulation metrics, it times pairs of an untraced and a traced run
// by process CPU time, which a shared host's time-sharing and steal do not
// advance. Every host time is rescaled by a reference kernel timed next to
// it (reference.h), which cancels the host's slow phases. Repetitions are
// interleaved round-robin across workloads. A separate layer-probe phase
// (probes.h) attributes host time to src/ modules. Every check that fails
// marks its run failed and makes the command exit 1; bad flags exit 2.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "probes.h"
#include "protocols/invariants.h"
#include "protocols/metrics.h"
#include "reference.h"
#include "summary.h"
#include "workloads.h"

#ifndef GTPL_PERF_BUILD_TYPE
#define GTPL_PERF_BUILD_TYPE "unknown"
#endif

namespace gtpl::perf {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 7;  // seed 11 is held out for claims
constexpr int64_t kVerifyTxns = 2000;
constexpr int kSetupsPerRound = 3;
constexpr int kLayerRounds = 3;  // minimum rounds of the layer phase
constexpr int64_t kSmokeDivisor = 25;

const char kUsage[] =
    "usage: bench_perf [--workload=NAME] [--reps=N] [--seed=N] "
    "[--seconds=S] [--phase=all|e2e|layers] [--json=PATH] [--smoke]\n"
    "  --workload=NAME  run one workload (default: all, round-robin)\n"
    "  --reps=N         repetitions per workload (default 5)\n"
    "  --seed=N         workload seed (default 7; 11 is held out)\n"
    "  --seconds=S      time each phase takes, shared among workloads and "
    "repetitions;\n"
    "                   0 (default) runs one timed run of each kind per "
    "repetition\n"
    "  --phase=P        e2e, layers, or all (default)\n"
    "  --json=PATH      write every repetition value and the host record\n"
    "  --smoke          1/25 run lengths, 1 repetition (CI scale)\n";

struct Options {
  std::vector<const Workload*> workloads;
  int reps = 5;
  uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  std::string phase = "all";
  std::string json_path;
  bool smoke = false;
  // Internal child-process mode: one simulation (run), the timed runs of
  // one repetition (time), a checked verification run (verify), or the
  // layer-probe phase (layers).
  std::string child;
  int64_t txns = 0;
  int32_t threads = 0;  // sim_threads of a parallel workload (0: one)
};

bool ParseOptions(int argc, char** argv, Options* o, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    int64_t n = 0;
    double d = 0.0;
    if (const char* v = value_of("--workload=")) {
      const Workload* workload = FindWorkload(v);
      if (workload == nullptr) {
        *error = "unknown workload '" + std::string(v) + "'";
        return false;
      }
      o->workloads = {workload};
    } else if (const char* v2 = value_of("--reps=")) {
      if (!harness::ParseInt64Value(v2, &n) || n < 1 || n > 1000) {
        *error = "bad --reps";
        return false;
      }
      o->reps = static_cast<int>(n);
    } else if (const char* v3 = value_of("--seed=")) {
      if (!harness::ParseInt64Value(v3, &n) || n < 0) {
        *error = "bad --seed";
        return false;
      }
      o->seed = static_cast<uint64_t>(n);
    } else if (const char* v4 = value_of("--seconds=")) {
      if (!harness::ParseDoubleValue(v4, &d) || !(d >= 0.0 && d <= 600.0)) {
        *error = "bad --seconds";
        return false;
      }
      o->seconds = d;
    } else if (const char* v5 = value_of("--phase=")) {
      o->phase = v5;
      if (o->phase != "all" && o->phase != "e2e" && o->phase != "layers") {
        *error = "bad --phase";
        return false;
      }
    } else if (const char* v6 = value_of("--json=")) {
      if (*v6 == '\0') {
        *error = "bad --json";
        return false;
      }
      o->json_path = v6;
    } else if (arg == "--smoke") {
      o->smoke = true;
    } else if (const char* v7 = value_of("--child=")) {
      o->child = v7;
      if (o->child != "run" && o->child != "time" && o->child != "verify" &&
          o->child != "layers") {
        *error = "bad --child";
        return false;
      }
    } else if (const char* v8 = value_of("--txns=")) {
      if (!harness::ParseInt64Value(v8, &n) || n < 1) {
        *error = "bad --txns";
        return false;
      }
      o->txns = n;
    } else if (const char* v9 = value_of("--threads=")) {
      if (!harness::ParseInt64Value(v9, &n) || n < 1 || n > 1024) {
        *error = "bad --threads";
        return false;
      }
      o->threads = static_cast<int32_t>(n);
    } else {
      *error = "unknown flag: " + arg;
      return false;
    }
  }
  if (!o->child.empty() && (o->workloads.size() != 1 || o->txns < 1)) {
    *error = "--child needs --workload and --txns";
    return false;
  }
  if (o->workloads.empty()) {
    for (const Workload& workload : Workloads()) {
      o->workloads.push_back(&workload);
    }
  }
  if (o->smoke) o->reps = 1;
  return true;
}

std::string OneLine(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Child side: each prints "key value" lines on stdout.

proto::SimConfig TracedConfig(const Workload& workload, uint64_t seed,
                              int64_t txns) {
  proto::SimConfig config = MakeConfig(workload, seed, txns);
  config.obs_trace = true;
  config.trace_stream_path = "/dev/null";
  return config;
}

/// The timed runs of one repetition (`o.txns` is the full length). Two
/// untimed warm-up runs at the workload's seed come first: a full untraced
/// one, which gives the simulation metrics and the peak RSS of one full
/// run, and a traced one. They fill the heap, so the timed runs pay no
/// first-touch page faults. Then timed pairs follow until `o.seconds` have
/// passed since the child started, at least one: an untraced run of
/// TimedTxns and a traced run of TracedTxns, both at the pair's PairSeed.
/// Each is timed by process CPU seconds. The reference kernel runs before
/// the first pair and after every pair; a pair's `ref_s` is the mean of the
/// two around it.
int RunTimed(const Options& o) {
  const Clock::time_point start = Clock::now();
  const Workload& workload = *o.workloads.front();
  const TimedRun first =
      TimeWorkload(workload, MakeConfig(workload, o.seed, o.txns));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const TimedRun first_traced = TimeWorkload(
      workload, TracedConfig(workload, o.seed, TracedTxns(o.txns)));
  std::printf("resp_p50 %.17g\nresp_p99 %.17g\nresp_n %lld\n",
              first.result.response_hist.Percentile(0.50),
              first.result.response_hist.Percentile(0.99),
              static_cast<long long>(first.result.commits));
  std::printf("abort_pct %.17g\n", first.result.AbortPercent());
  std::printf("maxrss_kib %ld\n", usage.ru_maxrss);
  std::printf("digest %s\ntraced_digest %s\n", Digest(first.result).c_str(),
              Digest(first_traced.result).c_str());

  std::vector<double> commits, cpu_s, traced_commits, traced_cpu_s, ref_s;
  std::string digests, traced_digests;
  ReferenceCpuSeconds();  // warm-up
  double ref_before = ReferenceCpuSeconds();
  for (int64_t i = 0; i == 0 || Elapsed(start) < o.seconds; ++i) {
    const uint64_t seed = PairSeed(o.seed, i);
    const TimedRun p = TimeWorkload(
        workload, MakeConfig(workload, seed, TimedTxns(o.txns)));
    const TimedRun t = TimeWorkload(
        workload, TracedConfig(workload, seed, TracedTxns(o.txns)));
    const double ref_after = ReferenceCpuSeconds();
    ref_s.push_back(0.5 * (ref_before + ref_after));
    ref_before = ref_after;
    if (p.result.timed_out || t.result.timed_out) {
      std::printf("failure timed run at seed %llu timed out\n",
                  static_cast<unsigned long long>(seed));
    }
    commits.push_back(static_cast<double>(p.result.total_commits));
    cpu_s.push_back(p.cpu_s);
    traced_commits.push_back(static_cast<double>(t.result.total_commits));
    traced_cpu_s.push_back(t.cpu_s);
    digests += Digest(p.result) + ";";
    traced_digests += Digest(t.result) + ";";
  }
  std::printf("runs %zu\n", 2 + 2 * cpu_s.size());
  for (const auto& [key, values] :
       {std::pair{"commits_list", &commits}, std::pair{"cpu_s", &cpu_s},
        std::pair{"traced_commits_list", &traced_commits},
        std::pair{"traced_cpu_s", &traced_cpu_s},
        std::pair{"ref_s", &ref_s}}) {
    std::printf("%s", key);
    for (const double v : *values) std::printf(" %.17g", v);
    std::printf("\n");
  }
  std::printf("pair_digests %s\ntraced_pair_digests %s\n", digests.c_str(),
              traced_digests.c_str());
  return first.result.timed_out || first_traced.result.timed_out ? 1 : 0;
}

int RunChild(const Options& o) {
  const Workload& workload = *o.workloads.front();
  if (o.child == "layers") {
    const LayerReport report =
        ProbeLayers(workload, o.seed, o.txns, o.seconds, o.reps);
    std::printf("runs %lld\n", static_cast<long long>(report.runs));
    for (const LayerMetric& m : report.metrics) {
      std::printf("metric %s %s %.17g\n", m.name, m.unit, m.value);
    }
    for (const std::string& failure : report.failures) {
      std::printf("failure %s\n", OneLine(failure).c_str());
    }
    return 0;
  }
  if (o.child == "time") return RunTimed(o);
  proto::SimConfig config = MakeConfig(workload, o.seed, o.txns);
  if (o.threads > 0) config.sim_threads = o.threads;
  if (o.child == "verify") {
    config.record_history = true;
    config.obs_trace = true;
    const proto::RunResult result = RunWorkload(workload, config);
    std::string why;
    if (result.timed_out) std::printf("failure verification run timed out\n");
    if (!proto::HistoryIsSerializable(result.history, &why)) {
      std::printf("failure history not serializable: %s\n",
                  OneLine(why).c_str());
    }
    why.clear();
    if (!proto::CheckProtocolInvariants(
            proto::ProtocolEventsFromTrace(result.obs_trace), &why)) {
      std::printf("failure protocol invariant violated: %s\n",
                  OneLine(why).c_str());
    }
    return 0;
  }
  const TimedRun run = TimeWorkload(workload, config);
  // The reference kernel runs after the run, so the run's heap stays cold.
  std::printf("cpu_s %.17g\nref_s %.17g\n", run.cpu_s, ReferenceCpuSeconds());
  std::printf("digest %s\n", Digest(run.result).c_str());
  return run.result.timed_out ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Parent side.

struct ChildOutput {
  bool ok = false;  // exited with status 0
  std::map<std::string, std::string> values;
  std::vector<std::string> failures;
  std::vector<std::string> metrics;  // "NAME UNIT VALUE"

  double Number(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  }
  std::string Text(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? std::string() : it->second;
  }
  std::vector<double> List(const std::string& key) const {
    std::vector<double> list;
    std::istringstream in(Text(key));
    for (double v = 0.0; in >> v;) list.push_back(v);
    return list;
  }
};

/// Runs this binary with `args` in a fresh process and waits for it.
ChildOutput Spawn(const std::vector<std::string>& args) {
  ChildOutput out;
  int fds[2];
  if (pipe(fds) != 0) return out;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("bench_perf"));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return out;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t got = read(fds[0], buf, sizeof(buf));
    if (got > 0) {
      text.append(buf, static_cast<size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  out.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const std::string rest = line.substr(space + 1);
    if (key == "failure") {
      out.failures.push_back(rest);
    } else if (key == "metric") {
      out.metrics.push_back(rest);
    } else {
      out.values[key] = rest;
    }
  }
  return out;
}

/// A metric with one value per repetition (host timings and memory).
struct Sampled {
  const char* name;
  const char* unit;
  std::vector<double> values;
};

/// A metric with one value per workload: deterministic simulation outputs
/// and the per-layer probe results. `n` is the sample behind it, if any.
struct Single {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t n = 0;
};

struct WorkloadResult {
  const Workload* workload = nullptr;
  int64_t txns = 0;  // full-run length
  bool has_e2e = false;
  Sampled txn_per_cpu_s{"txn_per_cpu_s", "1/s", {}};
  Sampled traced_txn_per_cpu_s{"traced_txn_per_cpu_s", "1/s", {}};
  Sampled setup_s{"setup_s", "s", {}};
  Sampled peak_rss_mib{"peak_rss_mib", "MiB", {}};
  std::vector<Single> sim;
  std::vector<Single> layers;
  std::string full_digest, traced_digest, setup_digest;
  std::vector<std::string> pair_digests, traced_pair_digests;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  std::vector<const Sampled*> sampled() const {
    return {&txn_per_cpu_s, &traced_txn_per_cpu_s, &setup_s, &peak_rss_mib};
  }

  void Fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }

  double FailedRunPct() const {
    return attempted > 0 ? 100.0 * static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& part : parts) out += (out.empty() ? "" : sep) + part;
  return out;
}

/// Keeps the first digest of a kind; a later run that differs failed.
void SameDigest(WorkloadResult& r, const char* what, std::string* first,
                const std::string& got) {
  if (first->empty()) {
    *first = got;
  } else if (*first != got) {
    r.Fail(std::string(what) + " digest differs: " + *first + " vs " + got);
  }
}

/// Timed pair i of every timing child runs at the same seed, so its digest
/// must match pair i of the children before. `got` is ';'-terminated.
void SameDigests(WorkloadResult& r, const char* what,
                 std::vector<std::string>* first, const std::string& got) {
  size_t i = 0;
  std::istringstream in(got);
  for (std::string digest; std::getline(in, digest, ';'); ++i) {
    if (i == first->size()) {
      first->push_back(digest);
    } else if ((*first)[i] != digest) {
      r.Fail(std::string(what) + " digest differs at pair " +
             std::to_string(i) + ": " + (*first)[i] + " vs " + digest);
      return;
    }
  }
}

class Bench {
 public:
  explicit Bench(const Options& options) : options_(options) {
    for (const Workload* workload : options.workloads) {
      WorkloadResult r;
      r.workload = workload;
      r.txns = options.smoke ? workload->txns / kSmokeDivisor : workload->txns;
      results_.push_back(std::move(r));
    }
  }

  void RunEndToEnd() {
    // --seconds is shared evenly among the repetitions' timing children.
    const double slice =
        options_.seconds /
        static_cast<double>(options_.reps * static_cast<int>(results_.size()));
    for (int round = 0; round < options_.reps; ++round) {
      for (WorkloadResult& r : results_) Repetition(r, slice);
    }
    for (WorkloadResult& r : results_) {
      // The trace must not perturb the simulation.
      const int64_t traced_txns = TracedTxns(r.txns);
      const ChildOutput untraced =
          Child(r, ChildArgs(r, "run", traced_txns));
      if (untraced.ok) {
        SameDigest(r, "traced vs untraced", &r.traced_digest,
                   untraced.Text("digest"));
      }
      if (r.workload->parallel) {
        // Timed on one thread, the parallel engine must give the same
        // result on several.
        const int64_t txns = TimedTxns(r.txns);
        const ChildOutput single = Child(r, ChildArgs(r, "run", txns));
        std::vector<std::string> args = ChildArgs(r, "run", txns);
        args.push_back("--threads=" + std::to_string(CheckThreads()));
        const ChildOutput multi = Child(r, args);
        std::string digest = single.Text("digest");
        if (single.ok && multi.ok) {
          SameDigest(r, "1 vs N threads", &digest, multi.Text("digest"));
        }
      }
      Verify(r);
    }
  }

  void RunLayers() {
    for (WorkloadResult& r : results_) {
      std::vector<std::string> args = ChildArgs(r, "layers", r.txns / 4);
      args.push_back("--seconds=" +
                     std::to_string(options_.seconds /
                                    static_cast<double>(results_.size())));
      args.push_back("--reps=" +
                     std::to_string(options_.smoke ? 1 : kLayerRounds));
      const ChildOutput out = Spawn(args);
      if (!out.ok) {
        ++r.attempted;
        r.Fail("layer probe exited abnormally");
        continue;
      }
      r.attempted += static_cast<int64_t>(out.Number("runs"));
      if (!out.failures.empty()) {
        r.Fail("layer probe: " + Join(out.failures, "; "));
      }
      for (const std::string& line : out.metrics) {
        Single metric;
        std::istringstream(line) >> metric.name >> metric.unit >>
            metric.value;
        r.layers.push_back(metric);
      }
      if (!r.has_e2e) Verify(r);
    }
  }

  /// Prints "workload metric value unit" lines; returns failed runs.
  int64_t Print() const {
    int64_t failed = 0;
    for (const WorkloadResult& r : results_) {
      const char* name = r.workload->name;
      if (r.has_e2e) {
        for (const Sampled* s : r.sampled()) {
          const Summary sum = Summarize(s->values);
          std::printf("%s %s %.6g %s n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g\n",
                      name, s->name, sum.median, s->unit, sum.n, sum.min,
                      sum.q1, sum.q3, sum.max);
        }
      }
      for (const std::vector<Single>* group : {&r.sim, &r.layers}) {
        for (const Single& m : *group) {
          std::printf("%s %s %.6g %s", name, m.name.c_str(), m.value,
                      m.unit.c_str());
          if (m.n > 0) std::printf(" n=%lld", static_cast<long long>(m.n));
          std::printf("\n");
        }
      }
      std::printf("%s failed_run_pct %.6g %% n=%lld\n", name,
                  r.FailedRunPct(), static_cast<long long>(r.attempted));
      for (const std::string& failure : r.failures) {
        std::printf("%s FAILED %s\n", name, failure.c_str());
      }
      failed += r.failed;
    }
    return failed;
  }

  bool WriteJson(const std::string& path) const;

 private:
  std::vector<std::string> ChildArgs(const WorkloadResult& r, const char* kind,
                                     int64_t txns) const {
    return {std::string("--child=") + kind,
            std::string("--workload=") + r.workload->name,
            "--seed=" + std::to_string(options_.seed),
            "--txns=" + std::to_string(txns)};
  }

  ChildOutput Child(WorkloadResult& r, const std::vector<std::string>& args) {
    ChildOutput out = Spawn(args);
    ++r.attempted;
    if (!out.ok) r.Fail("child exited abnormally: " + Join(args, " "));
    return out;
  }

  /// One round for one workload: set-up runs, each in a fresh child, then
  /// a timing child (RunTimed) that runs for about `seconds`.
  void Repetition(WorkloadResult& r, double seconds) {
    r.has_e2e = true;
    for (int k = 0; k < kSetupsPerRound; ++k) {
      // measured_txns = 1 gives warmup_txns = 0: a run that is all setup.
      const ChildOutput setup = Child(r, ChildArgs(r, "run", 1));
      if (!setup.ok) continue;
      // Rescaled to the recording host's speed, like the timed runs.
      r.setup_s.values.push_back(setup.Number("cpu_s") * kReferenceSeconds /
                                 setup.Number("ref_s"));
      SameDigest(r, "setup", &r.setup_digest, setup.Text("digest"));
    }
    std::vector<std::string> args = ChildArgs(r, "time", r.txns);
    args.push_back("--seconds=" + std::to_string(seconds));
    const ChildOutput timed = Child(r, args);
    if (!timed.failures.empty()) {
      r.Fail("timed runs: " + Join(timed.failures, "; "));
    }
    if (!timed.ok) return;
    r.attempted += static_cast<int64_t>(timed.Number("runs")) - 1;
    // CPU seconds rescaled to the recording host's speed: a pair timed
    // while the reference kernel ran 10% slow counts 10% less time.
    const std::vector<double> commits = timed.List("commits_list");
    const std::vector<double> cpu_s = timed.List("cpu_s");
    const std::vector<double> traced_commits =
        timed.List("traced_commits_list");
    const std::vector<double> traced_cpu_s = timed.List("traced_cpu_s");
    const std::vector<double> ref_s = timed.List("ref_s");
    const size_t pairs = ref_s.size();
    if (pairs == 0 || commits.size() != pairs || cpu_s.size() != pairs ||
        traced_commits.size() != pairs || traced_cpu_s.size() != pairs) {
      r.Fail("timed runs: malformed output");
      return;
    }
    for (size_t i = 0; i < pairs; ++i) {
      const double scale = kReferenceSeconds / ref_s[i];
      r.txn_per_cpu_s.values.push_back(commits[i] / (cpu_s[i] * scale));
      r.traced_txn_per_cpu_s.values.push_back(traced_commits[i] /
                                              (traced_cpu_s[i] * scale));
    }
    SameDigests(r, "timed pair", &r.pair_digests, timed.Text("pair_digests"));
    SameDigests(r, "traced timed pair", &r.traced_pair_digests,
                timed.Text("traced_pair_digests"));
    r.peak_rss_mib.values.push_back(timed.Number("maxrss_kib") / 1024.0);
    if (r.full_digest.empty()) {
      const auto n = static_cast<int64_t>(timed.Number("resp_n"));
      r.sim = {{"sim_resp_p50", "tu", timed.Number("resp_p50"), n},
               {"sim_resp_p99", "tu", timed.Number("resp_p99"), n},
               {"sim_abort_pct", "%", timed.Number("abort_pct"), n}};
    }
    SameDigest(r, "repetition", &r.full_digest, timed.Text("digest"));
    SameDigest(r, "traced repetition", &r.traced_digest,
               timed.Text("traced_digest"));
  }

  /// Serializability and protocol invariants of a short recorded run.
  void Verify(WorkloadResult& r) {
    const ChildOutput out = Child(r, ChildArgs(r, "verify", kVerifyTxns));
    if (out.ok && !out.failures.empty()) {
      r.Fail("verification: " + Join(out.failures, "; "));
    }
  }

  Options options_;
  std::vector<WorkloadResult> results_;
};

// ---------------------------------------------------------------------------
// JSON record

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// HEAD of the git checkout in the working directory; "unknown" elsewhere
/// (git is not run at all there, so nothing outside the directory is read).
std::string GitSha() {
  std::string out;
  if (!std::filesystem::exists(".git")) return "unknown";
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool Bench::WriteJson(const std::string& path) const {
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"bench_perf\",\n"
       << "  \"git_sha\": "
       << Quote(GitSha()) << ",\n"
       << "  \"build_type\": " << Quote(GTPL_PERF_BUILD_TYPE) << ",\n"
       << "  \"nproc\": " << HostThreads() << ",\n"
       << "  \"cpu_model\": " << Quote(CpuModel()) << ",\n"
       << "  \"seed\": " << options_.seed << ",\n"
       << "  \"reps\": " << options_.reps << ",\n"
       << "  \"seconds\": " << Number(options_.seconds) << ",\n"
       << "  \"phase\": " << Quote(options_.phase) << ",\n"
       << "  \"smoke\": " << (options_.smoke ? "true" : "false") << ",\n"
       << "  \"workloads\": [";
  for (size_t i = 0; i < results_.size(); ++i) {
    const WorkloadResult& r = results_[i];
    const Workload& w = *r.workload;
    const proto::SimConfig config = MakeConfig(w, options_.seed, r.txns);
    json << (i == 0 ? "\n" : ",\n") << "    {\"name\": " << Quote(w.name)
         << ",\n     \"config\": {\"engine\": " << Quote(w.engine)
         << ", \"servers\": " << w.num_servers
         << ", \"clients\": " << w.num_clients
         << ", \"items\": " << w.num_items
         << ", \"read_prob\": " << Number(w.read_prob)
         << ", \"zipf_theta\": " << Number(w.zipf_theta)
         << ", \"latency\": " << w.latency << ", \"charged_abort_notice\": "
         << (w.charged_abort_notice ? "true" : "false")
         << ", \"parallel\": " << (w.parallel ? "true" : "false")
         << ", \"sim_threads\": " << config.sim_threads
         << ", \"txns\": " << r.txns
         << ", \"warmup_txns\": " << config.warmup_txns
         << ", \"timed_txns\": " << TimedTxns(r.txns)
         << ", \"traced_txns\": " << TracedTxns(r.txns) << "},\n"
         << "     \"attempted\": " << r.attempted
         << ", \"failed\": " << r.failed << ", \"failures\": [";
    for (size_t f = 0; f < r.failures.size(); ++f) {
      json << (f == 0 ? "" : ", ") << Quote(r.failures[f]);
    }
    json << "],\n     \"metrics\": {";
    bool first = true;
    const auto open = [&json, &first](const std::string& name) {
      json << (first ? "\n" : ",\n") << "       " << Quote(name) << ": ";
      first = false;
    };
    if (r.has_e2e) {
      for (const Sampled* s : r.sampled()) {
        const Summary sum = Summarize(s->values);
        open(s->name);
        json << "{\"unit\": " << Quote(s->unit)
             << ", \"value\": " << Number(sum.median)
             << ", \"n\": " << sum.n << ", \"min\": " << Number(sum.min)
             << ", \"q1\": " << Number(sum.q1) << ", \"q3\": "
             << Number(sum.q3) << ", \"max\": " << Number(sum.max)
             << ", \"values\": [";
        for (size_t v = 0; v < s->values.size(); ++v) {
          json << (v == 0 ? "" : ", ") << Number(s->values[v]);
        }
        json << "]}";
      }
    }
    for (const std::vector<Single>* group : {&r.sim, &r.layers}) {
      for (const Single& m : *group) {
        open(m.name);
        json << "{\"unit\": " << Quote(m.unit)
             << ", \"value\": " << Number(m.value);
        if (m.n > 0) json << ", \"n\": " << m.n;
        json << "}";
      }
    }
    open("failed_run_pct");
    json << "{\"unit\": \"%\", \"value\": " << Number(r.FailedRunPct())
         << ", \"n\": " << r.attempted << "}";
    json << "\n     }}";
  }
  json << "\n  ]\n}\n";
  std::ofstream file(path);
  file << json.str();
  return static_cast<bool>(file);
}

}  // namespace
}  // namespace gtpl::perf

int main(int argc, char** argv) {
  using gtpl::perf::Options;
  Options options;
  std::string error;
  if (!gtpl::perf::ParseOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), gtpl::perf::kUsage);
    return 2;
  }
  if (!options.child.empty()) return gtpl::perf::RunChild(options);
  std::printf("bench_perf seed=%llu reps=%d seconds=%g phase=%s nproc=%d%s\n",
              static_cast<unsigned long long>(options.seed), options.reps,
              options.seconds, options.phase.c_str(),
              gtpl::perf::HostThreads(), options.smoke ? " smoke" : "");
  gtpl::perf::Bench bench(options);
  if (options.phase != "layers") bench.RunEndToEnd();
  if (options.phase != "e2e") bench.RunLayers();
  const int64_t failed = bench.Print();
  if (!options.json_path.empty() && !bench.WriteJson(options.json_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
    return 1;
  }
  return failed > 0 ? 1 : 0;
}
