#ifndef GTPL_DB_DATA_STORE_H_
#define GTPL_DB_DATA_STORE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace gtpl::db {

/// One update a commit ships: the new version of an item it wrote, which
/// the owning server installs (DataStore::Install).
struct ItemVersion {
  ItemId item = kInvalidItem;
  Version version = 0;
};

/// The server's installed database: one versioned copy per hot data item.
///
/// The simulation does not model item contents, only versions; versions let
/// the tests reconstruct reads-from relationships and prove serializability,
/// and let protocols assert they never install a stale copy.
class DataStore {
 public:
  explicit DataStore(int32_t num_items);

  int32_t num_items() const { return static_cast<int32_t>(versions_.size()); }

  /// Version of the installed copy.
  Version VersionOf(ItemId item) const;

  /// Installs `version` as the new committed copy. Must be >= the current
  /// version (equal when a circulation made no update).
  void Install(ItemId item, Version version);

 private:
  std::vector<Version> versions_;
};

}  // namespace gtpl::db

#endif  // GTPL_DB_DATA_STORE_H_
