#ifndef GTPL_PROTOCOLS_INVARIANTS_H_
#define GTPL_PROTOCOLS_INVARIANTS_H_

#include <string>
#include <vector>

#include "obs/trace.h"

namespace gtpl::core {
class ForwardList;
}

namespace gtpl::proto {

/// Entry/member snapshot of a forward list, for window trace events.
std::vector<obs::FlEntrySnapshot> SnapshotForwardList(
    const core::ForwardList& fl);

/// The trace itself: the checkers read obs::TraceEvent directly. Kept
/// because the host-cost benchmark (bench/perf) calls it.
inline const std::vector<obs::TraceEvent>& ProtocolEventsFromTrace(
    const std::vector<obs::TraceEvent>& trace) { return trace; }

/// Replays a structured observability trace (obs/trace.h) — a live run's
/// RunResult::obs_trace or a saved trace file (trace_inspect
/// --check-invariants) — through the protocol-invariant checkers. They read
/// protocol facts, not engine internals, so they apply at every shard count
/// and to every engine that emits the corresponding events; every other
/// kind (lifecycle, lock, message) is skipped. The checks:
///   - acyclicity: every kGraphCheck audit reported an acyclic precedence
///     graph;
///   - same-pair-same-order (paper §3.3, global across shards): no two
///     transactions appear in opposite orders in two forward lists
///     (kWindowDispatch / kWindowExpand snapshots) they share; co-membership
///     in a read group orders neither way;
///   - MR1W release discipline (paper §3.4): a committed writer never
///     releases its update (kWriterRelease) before the releases
///     (kReaderRelease) of *all* readers of the preceding read group have
///     arrived at it;
///   - lease coherence (DESIGN.md §14): replaying kLeaseGrant/kLeaseRevoke/
///     kLeaseRelease, an exclusive grant admits no other holder site, a
///     shared grant admits no other-site write holder, no grant of any mode
///     lands on an item while a revoke on it is outstanding (sent but not
///     yet followed by that holder's release), and a revoke goes only to a
///     site that holds a lease.
/// Returns false at the first violation, with `explanation` (when non-null)
/// naming the rule and the offending event.
bool CheckProtocolInvariants(const std::vector<obs::TraceEvent>& events,
                             std::string* explanation = nullptr);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_INVARIANTS_H_
