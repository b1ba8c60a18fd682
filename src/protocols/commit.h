#ifndef GTPL_PROTOCOLS_COMMIT_H_
#define GTPL_PROTOCOLS_COMMIT_H_

#include <cstdint>

#include "common/registry.h"

namespace gtpl::proto {

/// Geo-aware commit-path variants for cross-server two-phase commit
/// (DESIGN.md §13). Selected per run by SimConfig::commit_path / the
/// `--commit=NAME` flag; every variant composes with every sharded engine
/// in the cc registry. kClassic is the default and is bit-identical to the
/// pre-registry engines (the standing goldens and the equivalence battery
/// pin this); transactions confined to one shard never enter any of these
/// paths.
enum class CommitPath {
  /// Today's client-coordinated 2PC: the prepare fan-out is already
  /// parallel (all participants at the same simulated instant, so the
  /// prepare phase costs max-RTT, not sum-RTT); response blocks on the
  /// prepare flight out plus the vote flight back — two WAN flights.
  kClassic = 0,
  /// Speculative early prepare: a participant whose share of the work set
  /// is complete gets its prepare piggybacked on the last operation that
  /// touches it, so the prepare/vote round overlaps the remaining
  /// execution rounds. With every vote home by commit time the commit
  /// phase blocks on zero WAN flights.
  kEarly = 1,
  /// One-round fast path for transactions whose writes land on a single
  /// shard: the prepare/vote round is skipped entirely and the commit
  /// outcome rides the ordinary release/forward messages (reads elsewhere
  /// are validated by the piggybacked decision — the shard still holds
  /// their locks, and a doomed transaction can never reach this path).
  kFastPath = 2,
  /// Coordinator placement: per transaction, choose between the client
  /// and the server co-located with the write-heaviest participant as 2PC
  /// coordinator, from the static latency matrix. A remote coordinator
  /// adds a handoff and an ack leg on the client's own response (four
  /// blocking flights) but delivers the commit decision to participants
  /// sooner, releasing their locks earlier — a win when the server mesh
  /// is much faster than the client-server WAN (server_latency).
  kCoord = 3,
};

/// One registered commit-path variant, mirroring cc::EngineInfo: the
/// registry is the single place mapping CommitPath values to string names
/// (--commit=<name>) and one-line summaries.
struct CommitPathInfo {
  const char* name;     // registry key, e.g. "fastpath"
  const char* summary;  // one-liner for --help and error listings
  CommitPath path;
};

using CommitPathRegistry =
    Registry<CommitPathInfo, CommitPath, &CommitPathInfo::path>;

/// All registered commit paths, in presentation order.
const CommitPathRegistry& CommitPaths();

/// The registry name of `path`.
const char* ToString(CommitPath path);

/// Blocking one-way WAN flights a *cross-server* commit pays in its commit
/// phase under the paper's pure-propagation model (the round-count table of
/// DESIGN.md §13; the property battery asserts these exactly per txn).
/// `single_write_shard` is whether the transaction's writes land on at most
/// one shard; `remote_coordinator` is whether kCoord handed coordination to
/// a server. Engines that run their own certification commit (OCC) fall
/// back to kClassic counts for every path.
int32_t ExpectedCommitFlights(CommitPath path, bool single_write_shard,
                              bool remote_coordinator);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_COMMIT_H_
