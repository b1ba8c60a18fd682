#ifndef GTPL_CC_REGISTRY_H_
#define GTPL_CC_REGISTRY_H_

#include <memory>
#include <string>

#include "common/registry.h"
#include "protocols/engine.h"

namespace gtpl::cc {

/// One registered concurrency-control engine. The registry is the single
/// place mapping protocol enum values to string names (--cc=<name> /
/// --protocol=<name>), display labels and engine factories; RunSimulation
/// and the CLI layers all resolve through it.
struct EngineInfo {
  const char* name;     // registry key, e.g. "waitdie"
  const char* label;    // display label, e.g. "wd-2PL" (ToString(Protocol))
  const char* summary;  // one-liner for --help and error listings
  proto::Protocol protocol;
  std::unique_ptr<proto::EngineBase> (*make)(const proto::SimConfig& config);
};

using EngineRegistry =
    Registry<EngineInfo, proto::Protocol, &EngineInfo::protocol>;

/// All registered engines, in presentation order.
const EngineRegistry& Engines();

/// Engine registered under `name`, or nullptr (Engines().Find; bench/perf
/// resolves its workloads' engines through this name).
inline const EngineInfo* FindEngine(const std::string& name) {
  return Engines().Find(name);
}

}  // namespace gtpl::cc

#endif  // GTPL_CC_REGISTRY_H_
