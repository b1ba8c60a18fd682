#ifndef GTPL_LEASE_LEASE_H_
#define GTPL_LEASE_LEASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace gtpl::lease {

/// Lease-based client lock caching (DESIGN.md §14). Selected per run by
/// SimConfig::lease / the `--lease=NAME` flag. kNone is the default and is
/// bit-identical to the pre-lease engines (the standing goldens and the
/// lease equivalence battery pin this).
enum class LeaseMode {
  /// Leases disabled: every lock acquisition pays the usual WAN round and
  /// the per-transaction lock table runs unchanged.
  kNone = 0,
  /// Sticky ownership, YFS lock_server_cache style: a grant is a per-item
  /// *site* lease that outlives the transaction. Repeat acquisitions at
  /// the holder site are satisfied from the client's LeaseCache with zero
  /// network flights (counted as lease_hits); conflicting requests at the
  /// server enqueue and trigger callback revocation (server -> holder
  /// revoke, holder drains the pinned local transaction, then releases).
  /// Assumes in-order delivery per channel, so SimConfig::Validate()
  /// rejects it with latency jitter or an unqueued finite-bandwidth link.
  kSticky = 1,
};

const char* ToString(LeaseMode mode);

/// Per-run lease knobs, carried inside SimConfig.
struct LeaseOptions {
  LeaseMode mode = LeaseMode::kNone;
  /// Client-side lease lifetime in sim time units; 0 means leases never
  /// expire. Expiry is lazy: an expired entry stops serving local hits and
  /// the next access re-fetches (and refreshes) the lease at the server.
  SimTime ttl = 0;
  /// Maximum unpinned leases a client retains; 0 means unlimited. Excess
  /// entries are evicted least-recently-used with a voluntary release.
  int32_t max_held = 0;
};

/// One registered lease mode, mirroring cc::EngineInfo / CommitPathInfo:
/// the registry is the single place mapping LeaseMode values to string
/// names (--lease=<name>) and one-line summaries.
struct LeaseModeInfo {
  const char* name;     // registry key, e.g. "sticky"
  const char* summary;  // one-liner for --help and error listings
  LeaseMode mode;
};

/// All registered lease modes, in presentation order.
const std::vector<LeaseModeInfo>& LeaseModes();

/// Lease mode registered under `name`, or nullptr.
const LeaseModeInfo* FindLeaseMode(const std::string& name);

/// Registry entry of `mode` (every LeaseMode value has exactly one).
const LeaseModeInfo& LeaseModeFor(LeaseMode mode);

/// Comma-separated registered names, for error messages and usage text.
std::string LeaseModeNames();

/// Resolves `name` to its LeaseMode, or InvalidArgument listing the
/// registered names (the CLI strict-parsing convention, like
/// cc::ParseEngineName).
Status ParseLeaseModeName(const std::string& name, LeaseMode* mode);

}  // namespace gtpl::lease

#endif  // GTPL_LEASE_LEASE_H_
