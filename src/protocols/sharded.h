#ifndef GTPL_PROTOCOLS_SHARDED_H_
#define GTPL_PROTOCOLS_SHARDED_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/forward_list.h"
#include "core/window_manager.h"
#include "protocols/engine.h"

namespace gtpl::proto {

/// Group two-phase locking (paper §3), the only g-2PL engine: the server
/// collects requests into forward lists; data items migrate client to
/// client along the list, fusing each lock release with the next grant;
/// deadlocks are avoided by keeping the transaction precedence graph
/// acyclic; MR1W lets the writer following a read group run concurrently
/// with its readers. `num_servers == 1` is the paper's single-server model.
///
/// Across shards there is one WindowManager per server, all sharing a
/// single ShardCoordinator, so deadlock avoidance and forward-list
/// reordering consult one global precedence graph — the same-pair-same-order
/// property holds across shards. Client-side obligation tracking is
/// shard-agnostic (an *obligation* is one occupied slot on a dispatched
/// forward list: receive the data, process it if the transaction is alive,
/// and forward it downstream at commit — or pass it through unchanged after
/// an abort); only the request/return endpoints differ per item.
class ShardedG2plEngine : public EngineBase {
 public:
  explicit ShardedG2plEngine(const SimConfig& config);

  const core::WindowManager& window_manager(int32_t shard) const {
    return *wms_[static_cast<size_t>(shard)];
  }
  const core::ShardCoordinator& coordinator() const { return *coordinator_; }

 protected:
  void SendRequest(TxnRun& run) override;
  void DoCommit(TxnRun& run) override;
  void OnClientAborted(TxnRun& run) override;
  void FillProtocolMetrics(RunResult* result) override;
  bool ShardVote(int32_t shard, TxnId txn, bool speculative) override;
  void OnCommitDecision(int32_t shard, TxnId txn) override;

 private:
  /// Transaction state that outlives the client's TxnRun: a finished
  /// transaction still occupies forward-list slots until every one of them
  /// has been forwarded (only then is it *drained*: it leaves the
  /// precedence graph, and its state is erased).
  struct TxnState {
    int32_t client_index = 0;
    bool finished = false;
    bool committed = false;
    int32_t slots_outstanding = 0;
    std::vector<ItemId> slot_items;
  };

  struct Obligation {
    std::shared_ptr<const core::ForwardList> fl;
    int32_t entry = 0;
    int32_t member = 0;
    bool is_writer = false;
    bool data_arrived = false;
    Version version = -1;
    int32_t releases_needed = 0;
    int32_t releases_received = 0;
    bool granted = false;
    bool forwarded = false;
  };

  struct ObKey {
    TxnId txn;
    ItemId item;
    bool operator==(const ObKey& other) const {
      return txn == other.txn && item == other.item;
    }
  };
  struct ObKeyHash {
    size_t operator()(const ObKey& key) const {
      return std::hash<int64_t>()(key.txn * 1000003 + key.item);
    }
  };

  void WmDispatch(int32_t shard, ItemId item, Version version,
                  std::shared_ptr<const core::ForwardList> fl);
  void WmAbort(int32_t shard, TxnId txn, SiteId client_site);
  void WmExpand(int32_t shard, ItemId item, Version version,
                std::shared_ptr<const core::ForwardList> fl, TxnId txn,
                SiteId client_site, int32_t member_index);

  void DeliverToEntry(SiteId from_site, ItemId item, Version version,
                      std::shared_ptr<const core::ForwardList> fl,
                      int32_t entry_index);
  void OnData(TxnId txn, ItemId item, Version version,
              std::shared_ptr<const core::ForwardList> fl,
              int32_t entry_index, int32_t member_index,
              int32_t early_releases);
  void OnReaderRelease(TxnId writer_txn, ItemId item, Version version,
                       std::shared_ptr<const core::ForwardList> fl,
                       int32_t writer_entry_index);
  void MaybeGrant(TxnId txn, ItemId item, Obligation& ob);
  void TryForward(TxnId txn, ItemId item);
  void CheckDrain(TxnId txn);
  TxnState& EnsureTxn(TxnId txn, int32_t client_index);

  std::unique_ptr<core::ShardCoordinator> coordinator_;
  std::vector<std::unique_ptr<core::WindowManager>> wms_;
  std::unordered_map<TxnId, TxnState> txns_;
  std::unordered_map<ObKey, Obligation, ObKeyHash> obligations_;
  std::unordered_set<TxnId> drained_;
};

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_SHARDED_H_
