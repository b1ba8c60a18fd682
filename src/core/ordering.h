#ifndef GTPL_CORE_ORDERING_H_
#define GTPL_CORE_ORDERING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace gtpl::core {

/// A lock request collected during an item's collection window.
struct PendingRequest {
  TxnId txn = kInvalidTxn;
  SiteId client = 0;
  LockMode mode = LockMode::kShared;
  int32_t restart_count = 0;  // consecutive aborts at the issuing client
};

/// Rule used to pre-order a window's batch before the precedence-consistent
/// topological sort fixes the final forward list (paper §3.2: "The forward
/// list may be created according to one of several ordering rules"; §6 lists
/// exploring such disciplines as future work).
enum class OrderingPolicy {
  kFifo = 0,        // sort by arrival of the request, the paper's default
  kReadsFirst = 1,  // shared requests first (larger leading read groups)
  kWritesFirst = 2, // exclusive requests first
};

const char* ToString(OrderingPolicy policy);

/// Stable pre-sort of `batch` according to `policy`. The result is fed to
/// PrecedenceGraph::ConsistentOrder, which respects this preference wherever
/// precedence constraints allow.
std::vector<PendingRequest> ApplyPolicy(OrderingPolicy policy,
                                        std::vector<PendingRequest> batch);

}  // namespace gtpl::core

#endif  // GTPL_CORE_ORDERING_H_
