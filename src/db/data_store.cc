#include "db/data_store.h"

#include "common/check.h"

namespace gtpl::db {

DataStore::DataStore(int32_t num_items)
    : versions_(static_cast<size_t>(num_items), 0) {
  GTPL_CHECK_GT(num_items, 0);
}

Version DataStore::VersionOf(ItemId item) const {
  GTPL_CHECK_GE(item, 0);
  GTPL_CHECK_LT(static_cast<size_t>(item), versions_.size());
  return versions_[static_cast<size_t>(item)];
}

void DataStore::Install(ItemId item, Version version) {
  GTPL_CHECK_GE(item, 0);
  GTPL_CHECK_LT(static_cast<size_t>(item), versions_.size());
  GTPL_CHECK_GE(version, versions_[static_cast<size_t>(item)])
      << "attempted to install a stale copy of item " << item;
  versions_[static_cast<size_t>(item)] = version;
}

}  // namespace gtpl::db
