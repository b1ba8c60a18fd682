#ifndef GTPL_HARNESS_CLI_H_
#define GTPL_HARNESS_CLI_H_

#include <string>

#include "common/status.h"
#include "harness/experiment.h"
#include "lease/lease.h"
#include "protocols/config.h"

namespace gtpl::harness {

/// Common command line of the bench binaries:
///   --txns=N     measured transactions per replication (default 4000)
///   --warmup=N   warmup transactions (default 400)
///   --runs=N     replications per point (default 3)
///   --seed=N     base seed (default 42)
///   --jobs=N     worker threads for the sweep grid (default: GTPL_JOBS
///                env var, else all hardware threads; results are
///                bit-identical at any value)
///   --cc=NAME    restrict a protocol-sweeping bench to one registered
///                engine (strict: unknown names fail listing the registry)
///   --commit=NAME  commit path for cross-server 2PC (classic, early,
///                fastpath, coord; strict like --cc)
///   --lease=NAME   lease mode for the lock engines (none, sticky; strict
///                like --cc)
///   --lease-ttl=N  lease lifetime in sim time units (0 = infinite)
///   --lease-max-held=N  max unpinned leases a client retains (0 = unlimited)
///   --sim-threads=N  intra-run worker threads (default 1 = the serial
///                engine; N > 1 runs the conservative per-shard parallel
///                engine, bit-identical at any N; strict: 0 or malformed
///                values fail)
///   --full       paper scale: 50000 measured txns, 5 replications
///   --quick      smoke scale: 800 measured txns, 2 replications
///   --smoke      CI scale: 200 measured txns, 1 replication
///   --csv=PATH   also write the main table as CSV
struct CliOptions {
  ExperimentScale scale;
  std::string csv_path;
  int jobs = 0;  // 0 = auto (GTPL_JOBS env, else hardware threads)
  /// Registered engine name from --cc, empty when the flag was not given
  /// (benches then sweep their default engine set); `cc_protocol` is
  /// meaningful only when `cc` is non-empty.
  std::string cc;
  proto::Protocol cc_protocol = proto::Protocol::kS2pl;
  /// Commit-path name from --commit, empty when the flag was not given
  /// (benches then sweep their default variant set or run kClassic).
  std::string commit;
  proto::CommitPath commit_path = proto::CommitPath::kClassic;
  /// Lease-mode name from --lease, empty when the flag was not given
  /// (benches then sweep their default lease set or run kNone). The ttl
  /// and max_held knobs in `lease_options` apply whenever the bench honors
  /// leases, independent of whether --lease itself was passed.
  std::string lease;
  lease::LeaseOptions lease_options;
  /// Intra-run worker threads from --sim-threads (SimConfig::sim_threads):
  /// 1 = the legacy serial engine, N > 1 = the parallel per-shard engine.
  int32_t sim_threads = 1;
};

/// Strict numeric parsing for CLI flag values (std::from_chars; the whole
/// token must be consumed, no leading whitespace, no trailing junk).
/// Returns false — leaving *out untouched — on empty, malformed, or
/// overflowing input, where the atoi/atof family silently yields 0.
bool ParseInt32Value(const char* text, int32_t* out);
bool ParseInt64Value(const char* text, int64_t* out);
bool ParseDoubleValue(const char* text, double* out);

/// Parses argv. A bad flag returns a non-ok status whose message the caller
/// prints. --help and -h print the usage to stderr and exit 0.
Status ParseCli(int argc, char** argv, CliOptions* options);

/// Prints the standard bench banner (experiment id + scale in use).
void PrintBanner(const std::string& title, const CliOptions& options);

}  // namespace gtpl::harness

#endif  // GTPL_HARNESS_CLI_H_
