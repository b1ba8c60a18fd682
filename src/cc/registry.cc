#include "cc/registry.h"

#include <utility>

#include "cc/lock_engine.h"
#include "cc/occ.h"
#include "cc/policy.h"
#include "common/check.h"
#include "protocols/cbl.h"
#include "protocols/parsim.h"
#include "protocols/sharded.h"

namespace gtpl::cc {
namespace {

using proto::EngineBase;
using proto::Protocol;
using proto::SimConfig;

// Server-based strict 2PL (paper §3.1, the baseline): the generic lock
// engine with waits-for cycle detection. Sticky leases (--lease) only add
// the lease layer on top.
std::unique_ptr<EngineBase> MakeS2pl(const SimConfig& config) {
  return std::make_unique<LockCcEngine>(config, MakeDetectPolicy());
}

// Group 2PL (paper §3) at any shard count: one server is the N=1 case of
// the sharded engine, with no 2PC because no transaction spans shards.
std::unique_ptr<EngineBase> MakeG2pl(const SimConfig& config) {
  return std::make_unique<proto::ShardedG2plEngine>(config);
}

// Caching 2PL: s-2PL plus a client data cache. Every access still takes a
// per-transaction lock; a grant the client's cached copy satisfies ships no
// data (saves payload bytes, never rounds).
std::unique_ptr<EngineBase> MakeC2pl(const SimConfig& config) {
  LockEngineTraits traits;
  traits.cache_data = true;
  return std::make_unique<LockCcEngine>(config, MakeDetectPolicy(), traits);
}

std::unique_ptr<EngineBase> MakeNoWait(const SimConfig& config) {
  return std::make_unique<LockCcEngine>(config, MakeNoWaitPolicy());
}

std::unique_ptr<EngineBase> MakeWaitDie(const SimConfig& config) {
  return std::make_unique<LockCcEngine>(config, MakeWaitDiePolicy());
}

std::unique_ptr<EngineBase> MakeWoundWait(const SimConfig& config) {
  return std::make_unique<LockCcEngine>(config, MakeWoundWaitPolicy());
}

std::unique_ptr<EngineBase> MakeOcc(const SimConfig& config) {
  return std::make_unique<OccEngine>(config);
}

// Optimistic 2PL: OCC plus a client data cache (cached accesses cost no
// round) and per-item copy sets that installed writes invalidate.
std::unique_ptr<EngineBase> MakeO2pl(const SimConfig& config) {
  return std::make_unique<OccEngine>(config, /*cache_data=*/true);
}

std::unique_ptr<EngineBase> MakeOrdered(const SimConfig& config) {
  LockEngineTraits traits;
  traits.release_at_prepare = true;
  return std::make_unique<LockCcEngine>(config, MakeOrderedPolicy(), traits);
}

}  // namespace

const EngineRegistry& Engines() {
  static const EngineRegistry* engines = new EngineRegistry(
      "engine",
      {
          {"s2pl", "s-2PL",
           "strict 2PL, waits-for deadlock detection (paper baseline)",
           Protocol::kS2pl, MakeS2pl},
          {"g2pl", "g-2PL", "group 2PL with forward lists (paper contribution)",
           Protocol::kG2pl, MakeG2pl},
          {"c2pl", "c-2PL", "caching 2PL: s-2PL plus a client data cache",
           Protocol::kC2pl, MakeC2pl},
          {"cbl", "CBL", "callback locking", Protocol::kCbl,
           proto::MakeCblEngine},
          {"o2pl", "O2PL", "optimistic 2PL: OCC plus a client data cache",
           Protocol::kO2pl, MakeO2pl},
          {"nowait", "nw-2PL",
           "no-wait 2PL: blocked requests abort the requester",
           Protocol::kNoWait, MakeNoWait},
          {"waitdie", "wd-2PL",
           "wait-die 2PL: wait for younger only, die on older",
           Protocol::kWaitDie, MakeWaitDie},
          {"woundwait", "ww-2PL",
           "wound-wait 2PL: wound younger blockers, wait on older",
           Protocol::kWoundWait, MakeWoundWait},
          {"occ", "OCC", "optimistic CC, backward validation at commit",
           Protocol::kOcc, MakeOcc},
          {"ordered", "or-2PL",
           "ordered 2PL: in-order acquisition, release at prepare",
           Protocol::kOrdered, MakeOrdered},
      });
  return *engines;
}

}  // namespace gtpl::cc

namespace gtpl::proto {

const char* ToString(Protocol protocol) {
  return cc::Engines().For(protocol).label;
}

RunResult RunSimulation(const SimConfig& config) {
  GTPL_CHECK(config.Validate().ok()) << config.Validate().ToString();
  if (config.sim_threads > 1) {
    // The conservative per-shard parallel engine (--sim-threads=N,
    // DESIGN.md §15); sim_threads == 1 keeps the legacy serial engines
    // below bit-identical.
    return RunParallelSimulation(config);
  }
  return cc::Engines().For(config.protocol).make(config)->Run();
}

}  // namespace gtpl::proto
