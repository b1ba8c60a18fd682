#ifndef GTPL_DB_WAL_H_
#define GTPL_DB_WAL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"

namespace gtpl::db {

/// Kind of a write-ahead-log record.
enum class LogRecordKind : uint8_t {
  kUpdate = 0,   // a client's local update (before-image discipline implied)
  kCommit = 1,
  kAbort = 2,
  kInstall = 3,  // server made a version permanent
  kPrepare = 4,  // cross-server 2PC: coordinator/participant prepared
};

/// One WAL record. Contents are not modeled; versions identify updates.
struct LogRecord {
  int64_t lsn = 0;
  LogRecordKind kind = LogRecordKind::kUpdate;
  TxnId txn = kInvalidTxn;
  ItemId item = kInvalidItem;
  Version version = 0;
};

/// Write-ahead log for one site.
///
/// The paper assumes "the standard protocol adopted by the s-2PL protocol
/// where each site uses WAL and garbage collects its log once the data are
/// made permanent at the server". This class provides that substrate:
/// append, force (durability point), and truncation once the server
/// acknowledges permanence. Forcing may carry a simulated delay, applied by
/// the caller via force_delay(); it defaults to 0 so recovery bookkeeping
/// does not perturb the reproduced performance numbers.
class WriteAheadLog {
 public:
  explicit WriteAheadLog(SimTime force_delay = 0);

  /// Appends a record; returns its LSN. Records are durable once a Force()
  /// with lsn >= record.lsn completes.
  int64_t Append(LogRecordKind kind, TxnId txn, ItemId item, Version version);

  /// Marks everything up to `lsn` durable; returns the simulated delay the
  /// caller must charge (0 when already durable).
  SimTime Force(int64_t lsn);

  /// Garbage-collects records with lsn <= `lsn` (data permanent at server).
  void TruncateThrough(int64_t lsn);

  /// Forces every appended record and truncates through it: the log
  /// checkpoint of a site whose updates are all permanent. Charges no
  /// delay, and leaves an empty or already-checkpointed log unchanged.
  void Checkpoint();

  int64_t next_lsn() const { return next_lsn_; }
  int64_t durable_lsn() const { return durable_lsn_; }
  int64_t truncated_lsn() const { return truncated_lsn_; }
  SimTime force_delay() const { return force_delay_; }

  /// Records still retained (not yet truncated).
  const std::deque<LogRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }

  /// Total appends / forces performed (for metrics & tests).
  int64_t appends() const { return next_lsn_ - 1; }
  int64_t forces() const { return forces_; }

 private:
  SimTime force_delay_;
  std::deque<LogRecord> records_;
  int64_t next_lsn_ = 1;
  int64_t durable_lsn_ = 0;
  int64_t truncated_lsn_ = 0;
  int64_t forces_ = 0;
};

}  // namespace gtpl::db

#endif  // GTPL_DB_WAL_H_
