#ifndef GTPL_PROTOCOLS_INVARIANTS_H_
#define GTPL_PROTOCOLS_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"

namespace gtpl::core {
class ForwardList;
}

namespace gtpl::proto {

/// Kind of a recorded protocol event (see ProtocolEvent).
enum class ProtocolEventKind : uint8_t {
  /// A server dispatched a window; `entries` snapshots its forward list.
  kWindowDispatched = 0,
  /// Read-group expansion admitted a member; `entries` snapshots the
  /// re-published forward list (expanded member included), `txn` the
  /// admitted transaction.
  kWindowExpanded = 1,
  /// A reader's release message reached the writer client that follows its
  /// read group; `txn` is the *writer*, `item` the migrating item.
  kReaderReleaseArrived = 2,
  /// A committed writer forwarded (released) its update downstream or back
  /// to the server.
  kWriterUpdateReleased = 3,
  /// Acyclicity audit of the (global) precedence graph; `flag` = acyclic.
  kGraphCheck = 4,
  /// Cross-server commit: prepare message reached participant `server`.
  kPrepareArrived = 5,
  /// Cross-server commit: participant `server`'s vote reached the client
  /// coordinator; `flag` = yes-vote.
  kVoteArrived = 6,
  /// Cross-server commit: commit decision reached participant `server`.
  kCommitDecisionArrived = 7,
  /// Sticky lease granted to `site` on `item`; `flag` = exclusive.
  kLeaseGranted = 8,
  /// Revoke callback sent to holder `site` on `item`.
  kLeaseRevoked = 9,
  /// Lease release from `site` on `item` processed at the server.
  kLeaseReleased = 10,
};

/// One protocol fact the invariant checkers below consume: the projection
/// of an observability trace (obs/trace.h) onto dispatch orders, release
/// arrivals, graph audits, 2PC rounds and lease transitions. It records
/// protocol *facts* rather than engine internals, so the same checkers
/// apply at every shard count and to every engine that emits the
/// corresponding trace events.
struct ProtocolEvent {
  ProtocolEventKind kind = ProtocolEventKind::kWindowDispatched;
  SimTime time = 0;
  TxnId txn = kInvalidTxn;
  ItemId item = kInvalidItem;
  int32_t server = 0;  // shard index (0 in single-server runs)
  /// Lease events: the client site holding / being revoked. -1 elsewhere.
  SiteId site = -1;
  bool flag = false;  // kGraphCheck: acyclic; kVoteArrived: yes;
                      // kLeaseGranted: exclusive
  std::vector<obs::FlEntrySnapshot> entries;  // window events only

  bool operator==(const ProtocolEvent& other) const {
    return kind == other.kind && time == other.time && txn == other.txn &&
           item == other.item && server == other.server &&
           site == other.site && flag == other.flag &&
           entries == other.entries;
  }
};

/// Entry/member snapshot of a forward list, for window trace events.
std::vector<obs::FlEntrySnapshot> SnapshotForwardList(
    const core::ForwardList& fl);

/// Projects a structured observability trace onto the protocol-invariant
/// event stream: the trace events with a ProtocolEventKind counterpart
/// (window dispatch/expand, graph audits, reader/writer releases, 2PC
/// rounds, lease transitions) convert one to one and in order; everything
/// else is dropped. The checkers below therefore run on a live run's
/// RunResult::obs_trace and on a saved trace file alike (trace_inspect
/// --check-invariants).
std::vector<ProtocolEvent> ProtocolEventsFromTrace(
    const std::vector<obs::TraceEvent>& trace);

/// Every kGraphCheck event in the stream reported an acyclic graph.
bool CheckAcyclicity(const std::vector<ProtocolEvent>& events,
                     std::string* explanation = nullptr);

/// Same-pair-same-order (paper §3.3, global across shards): no two
/// transactions appear in opposite orders in two forward lists they share.
/// Co-membership in a read group orders neither way and is compatible with
/// any order elsewhere.
bool CheckForwardListOrderConsistency(
    const std::vector<ProtocolEvent>& events,
    std::string* explanation = nullptr);

/// MR1W release discipline (paper §3.4): a committed writer never releases
/// its update before the release messages of *all* readers of the preceding
/// read group have arrived at it.
bool CheckMr1wDiscipline(const std::vector<ProtocolEvent>& events,
                         std::string* explanation = nullptr);

/// Lease coherence (DESIGN.md §14): replays the kLease* events and checks
/// that an exclusive grant admits no other holder site, a shared grant
/// admits no other-site write holder, and *no* grant of any mode lands on
/// an item while a revoke on it is outstanding (sent but not yet followed
/// by that holder's release).
bool CheckLeaseCoherence(const std::vector<ProtocolEvent>& events,
                         std::string* explanation = nullptr);

/// All of the above.
bool CheckProtocolInvariants(const std::vector<ProtocolEvent>& events,
                             std::string* explanation = nullptr);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_INVARIANTS_H_
