#include "db/wal.h"

#include "common/check.h"

namespace gtpl::db {

void WriteAheadLog::Force(int64_t lsn) {
  GTPL_CHECK_LT(lsn, next_lsn_);
  if (lsn <= durable_lsn_) return;
  durable_lsn_ = lsn;
  ++forces_;
}

void WriteAheadLog::TruncateThrough(int64_t lsn) {
  GTPL_CHECK_LE(lsn, durable_lsn_)
      << "cannot garbage-collect records that were never made durable";
  if (lsn > truncated_lsn_) truncated_lsn_ = lsn;
}

void WriteAheadLog::Checkpoint() {
  Force(next_lsn_ - 1);
  TruncateThrough(durable_lsn_);
}

}  // namespace gtpl::db
