#ifndef GTPL_DB_WAL_H_
#define GTPL_DB_WAL_H_

#include <cstddef>
#include <cstdint>

namespace gtpl::db {

/// Write-ahead log for one site.
///
/// The paper assumes "the standard protocol adopted by the s-2PL protocol
/// where each site uses WAL and garbage collects its log once the data are
/// made permanent at the server". This class provides that substrate:
/// append, force (durability point), and truncation once the server
/// acknowledges permanence. As in the paper's model, which prices a commit
/// in WAN message rounds, a force costs no simulated time. Record contents
/// are not modeled (recovery is out of scope), so the log keeps only its
/// LSN counters: records get consecutive LSNs and truncation drops a
/// prefix.
class WriteAheadLog {
 public:
  /// Appends a record; returns its LSN. Records are durable once a Force()
  /// with lsn >= the record's LSN completes.
  int64_t Append() { return next_lsn_++; }

  /// Marks everything up to `lsn` durable (a no-op when already durable).
  void Force(int64_t lsn);

  /// Garbage-collects records with lsn <= `lsn` (data permanent at server).
  void TruncateThrough(int64_t lsn);

  /// Forces every appended record and truncates through it: the log
  /// checkpoint of a site whose updates are all permanent. Leaves an empty
  /// or already-checkpointed log unchanged.
  void Checkpoint();

  int64_t next_lsn() const { return next_lsn_; }
  int64_t durable_lsn() const { return durable_lsn_; }
  int64_t truncated_lsn() const { return truncated_lsn_; }

  /// Records still retained (not yet truncated).
  size_t size() const {
    return static_cast<size_t>(next_lsn_ - 1 - truncated_lsn_);
  }

  /// Total appends / forces performed (for metrics & tests).
  int64_t appends() const { return next_lsn_ - 1; }
  int64_t forces() const { return forces_; }

 private:
  int64_t next_lsn_ = 1;
  int64_t durable_lsn_ = 0;
  int64_t truncated_lsn_ = 0;
  int64_t forces_ = 0;
};

}  // namespace gtpl::db

#endif  // GTPL_DB_WAL_H_
