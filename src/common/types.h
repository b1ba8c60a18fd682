#ifndef GTPL_COMMON_TYPES_H_
#define GTPL_COMMON_TYPES_H_

#include <cstdint>
#include <string>

namespace gtpl {

/// Simulated time in abstract "time units" (the paper's unit-time clock).
/// The conversion to wall time is a free scale factor; the paper suggests
/// 1 unit = 0.5 ms, making latencies of 100-1000 units span 50-500 ms WANs.
using SimTime = int64_t;

/// Identifies a transaction instance. Ids are never reused within a run;
/// an aborted transaction's replacement gets a fresh id.
using TxnId = int64_t;

/// Identifies a data item in the server's hot set (0 .. num_items-1).
using ItemId = int32_t;

/// Version counter of a data item. The server's installed copy and every
/// in-flight copy carry the version so that tests can check serializability.
using Version = int64_t;

/// Identifies a site. Site 0 is the data server, 1..num_clients are clients.
using SiteId = int32_t;

inline constexpr SiteId kServerSite = 0;
inline constexpr SiteId kInvalidSite = -1;
inline constexpr TxnId kInvalidTxn = -1;
inline constexpr ItemId kInvalidItem = -1;

/// Lock / access mode for one operation. The paper uses shared reads and
/// exclusive writes (strict 2PL).
enum class LockMode : uint8_t {
  kShared = 0,
  kExclusive = 1,
};

/// True iff two lock modes may be held concurrently on the same item.
inline bool Compatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

inline const char* ToString(LockMode m) {
  return m == LockMode::kShared ? "S" : "X";
}

}  // namespace gtpl

#endif  // GTPL_COMMON_TYPES_H_
