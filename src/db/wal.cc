#include "db/wal.h"

#include "common/check.h"

namespace gtpl::db {

WriteAheadLog::WriteAheadLog(SimTime force_delay)
    : force_delay_(force_delay) {
  GTPL_CHECK_GE(force_delay, 0);
}

int64_t WriteAheadLog::Append(LogRecordKind kind, TxnId txn, ItemId item,
                              Version version) {
  const int64_t lsn = next_lsn_++;
  records_.push_back(LogRecord{lsn, kind, txn, item, version});
  return lsn;
}

SimTime WriteAheadLog::Force(int64_t lsn) {
  GTPL_CHECK_LT(lsn, next_lsn_);
  if (lsn <= durable_lsn_) return 0;
  durable_lsn_ = lsn;
  ++forces_;
  return force_delay_;
}

void WriteAheadLog::TruncateThrough(int64_t lsn) {
  GTPL_CHECK_LE(lsn, durable_lsn_)
      << "cannot garbage-collect records that were never made durable";
  while (!records_.empty() && records_.front().lsn <= lsn) {
    records_.pop_front();
  }
  if (lsn > truncated_lsn_) truncated_lsn_ = lsn;
}

void WriteAheadLog::Checkpoint() {
  Force(next_lsn_ - 1);
  TruncateThrough(durable_lsn_);
}

}  // namespace gtpl::db
