#ifndef GTPL_COMMON_REGISTRY_H_
#define GTPL_COMMON_REGISTRY_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace gtpl {

/// A fixed table of named rows: the one string <-> enum <-> row lookup
/// behind the engine (cc::Engines), commit-path (proto::CommitPaths) and
/// lease-mode (lease::LeaseModes) registries. `Row` has a `const char*
/// name`, its registry key; `kValue` is its enum column, in which every
/// value of `Value` appears exactly once.
template <typename Row, typename Value, Value Row::*kValue>
class Registry {
 public:
  /// `what` names one row in the rejection text, e.g. "commit path".
  Registry(const char* what, std::vector<Row> rows)
      : what_(what), rows_(std::move(rows)) {}

  /// The rows, in presentation order.
  auto begin() const { return rows_.begin(); }
  auto end() const { return rows_.end(); }
  size_t size() const { return rows_.size(); }

  /// Row registered under `name`, or nullptr.
  const Row* Find(const std::string& name) const {
    for (const Row& row : rows_) {
      if (name == row.name) return &row;
    }
    return nullptr;
  }

  /// Row of `value` (a value without a row is a bug: CHECK-fails).
  const Row& For(Value value) const {
    for (const Row& row : rows_) {
      if (row.*kValue == value) return row;
    }
    GTPL_CHECK(false) << what_ << " without a registry row";
    return rows_.front();
  }

  /// Comma-separated names, for error messages and usage text.
  std::string Names() const {
    std::string names;
    for (const Row& row : rows_) {
      if (!names.empty()) names += ", ";
      names += row.name;
    }
    return names;
  }

  /// Resolves `name` into `*value`, or fails InvalidArgument with
  /// "unknown <what> '<name>' (registered: <Names()>)" and leaves `*value`
  /// as it was: the CLI's strict-parsing convention.
  Status Parse(const std::string& name, Value* value) const {
    const Row* row = Find(name);
    if (row == nullptr) {
      return Status::InvalidArgument("unknown " + std::string(what_) + " '" +
                                     name + "' (registered: " + Names() +
                                     ")");
    }
    *value = row->*kValue;
    return Status::Ok();
  }

 private:
  const char* what_;
  std::vector<Row> rows_;
};

}  // namespace gtpl

#endif  // GTPL_COMMON_REGISTRY_H_
