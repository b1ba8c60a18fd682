#ifndef GTPL_CC_OCC_H_
#define GTPL_CC_OCC_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "protocols/engine.h"

namespace gtpl::cc {

/// Optimistic concurrency control with backward validation at commit.
///
/// The read phase takes no locks: each operation is one request/data round
/// that ships the item's current committed version (so response time per op
/// is the same WAN round s-2PL pays when uncontended — OCC removes lock
/// *waiting*, not propagation). At commit the client sends its read/write
/// set to the owning server(s); a server validates backward against the
/// committed store — every recorded version_read must still be current —
/// and a single-shard transaction installs its writes atomically with the
/// validation, so the validation instant is the serialization point.
///
/// Cross-server commits run the base's kClassic round (EngineBase) with a
/// validate as the prepare, carrying the shard's slice of the read/write
/// set, and validation instead of a lock-state check: a yes vote
/// *reserves* the validated items — later validations touching them in a
/// conflicting mode vote no — and parks the shard's write slice
/// server-side, so the decision message is control-only. Reservations are
/// cleared by the decision (commit) or by the client's abort cleanup
/// message.
///
/// The commit thus costs one extra WAN round (single shard) or two (2PC)
/// on top of the pessimistic engines' commit path, the classic OCC
/// trade: no waiting during the read phase, paid for with validation
/// latency and restarts under contention.
///
/// With `cache_data` (O2PL, optimistic 2PL) clients also cache committed
/// data across transactions: an access to a cached item is served locally
/// with no round, a miss is the ordinary read round and fills the cache,
/// and each server tracks which sites copied an item (its copy set). An
/// installed write sends "invalidate" to every other holder and leaves the
/// committer as the only one. A stale local read is caught by the same
/// backward validation and costs a restart, never a wrong commit.
class OccEngine : public proto::EngineBase {
 public:
  explicit OccEngine(const proto::SimConfig& config, bool cache_data = false);

 protected:
  void SendRequest(TxnRun& run) override;
  /// Installs happened at validation (single shard) or decision time (2PC);
  /// nothing travels at local-commit time. With a cache, the client keeps
  /// the versions it wrote.
  void DoCommit(TxnRun& run) override;
  void OnClientAborted(TxnRun& run) override;
  /// Certification commit: a single shard validates and installs in one
  /// round; across shards the votes are decided by validation
  /// (data-dependent), so the geo-aware commit paths do not apply: every
  /// path runs kClassic and counts commit_path_fallbacks.
  void StartCommit(TxnRun& run) override;
  /// kEarly's speculative prepares would route into the unreachable
  /// ShardVote below; OCC opts out (part of the classic fallback).
  void PreRequestHook(TxnRun& run) override { (void)run; }
  /// kClassic's prepare is a validate (OnValidate votes, not ShardVote).
  void SendPrepare(int32_t shard, TxnRun& run) override;
  bool ShardVote(int32_t shard, TxnId txn, bool speculative)
      override;  // unreachable
  /// Installs the shard's parked write slice and clears its reservations.
  void OnCommitDecision(int32_t shard, TxnId txn) override;

 private:
  /// Validation locks held between a yes vote and the decision/abort.
  struct Slot {
    int32_t readers = 0;
    TxnId writer = kInvalidTxn;
  };

  void OnRead(int32_t shard, TxnId txn, SiteId client_site, ItemId item,
              LockMode mode);
  void SendValidate(int32_t shard, TxnRun& run, bool multi);
  void OnValidate(int32_t shard, TxnId txn, SiteId client_site,
                  std::vector<proto::OpRecord> records, bool multi);

  bool ValidateOnShard(int32_t shard,
                       const std::vector<proto::OpRecord>& records);
  void Reserve(int32_t shard, TxnId txn,
               const std::vector<proto::OpRecord>& records);
  void ClearReservations(int32_t shard,
                         const std::vector<proto::OpRecord>& records);
  /// Installs the validated writes on `shard`. With a cache, each write
  /// also invalidates every copy except `committer_site`'s (kInvalidSite
  /// when the committer's run is already gone: no copy survives).
  void InstallOnShard(int32_t shard, TxnId txn, SiteId committer_site,
                      const std::vector<proto::OpRecord>& records);

  std::vector<std::unordered_map<ItemId, Slot>> reserved_;   // per shard
  std::vector<std::unordered_map<TxnId, std::vector<proto::OpRecord>>>
      prepared_;                                             // per shard

  // Client data cache (cache_data only; both empty otherwise).
  bool cache_data_ = false;
  std::vector<std::unordered_map<ItemId, Version>> caches_;  // per client
  std::vector<std::unordered_set<SiteId>> copy_sets_;         // per item
};

}  // namespace gtpl::cc

#endif  // GTPL_CC_OCC_H_
