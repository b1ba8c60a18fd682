#ifndef GTPL_PROTOCOLS_CBL_H_
#define GTPL_PROTOCOLS_CBL_H_

#include <memory>

#include "protocols/engine.h"

namespace gtpl::proto {

/// Builds the callback-locking engine (CBL), one of the client-caching
/// families the paper names in §1 and defers comparing against in §6.
std::unique_ptr<EngineBase> MakeCblEngine(const SimConfig& config);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_CBL_H_
