#ifndef GTPL_CC_REGISTRY_H_
#define GTPL_CC_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "protocols/engine.h"

namespace gtpl::cc {

/// One registered concurrency-control engine. The registry is the single
/// place mapping protocol enum values to string names (--cc=<name> /
/// --protocol=<name>) and engine factories; RunSimulation and the CLI
/// layers all resolve through it.
struct EngineInfo {
  const char* name;     // registry key, e.g. "waitdie"
  const char* summary;  // one-liner for --help and error listings
  proto::Protocol protocol;
  std::unique_ptr<proto::EngineBase> (*make)(const proto::SimConfig& config);
};

/// All registered engines, in presentation order.
const std::vector<EngineInfo>& Engines();

/// Engine registered under `name`, or nullptr.
const EngineInfo* FindEngine(const std::string& name);

/// Engine registered for `protocol` (every Protocol value has exactly one).
const EngineInfo& EngineFor(proto::Protocol protocol);

/// Comma-separated registered names, for error messages and usage text.
std::string EngineNames();

/// Resolves `name` to its protocol, or InvalidArgument listing the
/// registered engines (the CLI strict-parsing convention).
Status ParseEngineName(const std::string& name, proto::Protocol* protocol);

}  // namespace gtpl::cc

#endif  // GTPL_CC_REGISTRY_H_
