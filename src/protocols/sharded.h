#ifndef GTPL_PROTOCOLS_SHARDED_H_
#define GTPL_PROTOCOLS_SHARDED_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
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
/// One WindowManager is the whole server plane: items are disjoint across
/// shards, so it keeps each item's window state and one global precedence
/// graph, and deadlock avoidance and forward-list reordering consult that
/// graph — the same-pair-same-order property holds across shards. Each
/// item's messages still go to and from its owning shard's site.
/// Client-side obligation tracking is shard-agnostic (an *obligation* is
/// one occupied slot on a dispatched forward list: receive the data,
/// process it if the transaction is alive, and forward it downstream at
/// commit — or pass it through unchanged after an abort); only the
/// request/return endpoints differ per item.
class ShardedG2plEngine : public EngineBase {
 public:
  explicit ShardedG2plEngine(const SimConfig& config);

  const core::WindowManager& window_manager() const { return *wm_; }

 protected:
  void SendRequest(TxnRun& run) override;
  void DoCommit(TxnRun& run) override;
  void OnClientAborted(TxnRun& run) override;
  void FillProtocolMetrics(RunResult* result) override;

 private:
  /// One occupied forward-list slot (see the class comment).
  struct Obligation {
    ItemId item = kInvalidItem;
    std::shared_ptr<const core::ForwardList> fl;
    int32_t entry = 0;
    bool is_writer = false;
    bool data_arrived = false;
    Version version = -1;
    int32_t releases_needed = 0;
    int32_t releases_received = 0;
    bool granted = false;
    bool forwarded = false;
  };

  /// Transaction state that outlives the client's TxnRun: a finished
  /// transaction still occupies forward-list slots until every one of them
  /// has been forwarded (only then is it *drained*: it leaves the
  /// precedence graph, and its state is erased). Created at the first
  /// request, so a txn without an entry has drained.
  struct TxnState {
    int32_t client_index = 0;
    bool finished = false;
    bool committed = false;
    /// One per slot, in dispatch order; a transaction holds at most one
    /// slot per item.
    std::vector<Obligation> slots;
  };

  /// Emits the window event of `kind` (`txn` is kInvalidTxn for a
  /// dispatch, the admitted reader for an expansion) and the graph_check
  /// audit that follows it.
  void EmitWindow(obs::EventKind kind, TxnId txn, ItemId item,
                  Version version, const core::ForwardList& fl);
  void WmDispatch(ItemId item, Version version,
                  std::shared_ptr<const core::ForwardList> fl);
  void WmExpand(ItemId item, Version version,
                std::shared_ptr<const core::ForwardList> fl, TxnId txn,
                SiteId client_site);

  void DeliverToEntry(SiteId from_site, ItemId item, Version version,
                      std::shared_ptr<const core::ForwardList> fl,
                      int32_t entry_index);
  void OnData(TxnId txn, ItemId item, Version version,
              std::shared_ptr<const core::ForwardList> fl,
              int32_t entry_index, int32_t early_releases);
  void OnReaderRelease(TxnId writer_txn, ItemId item, Version version,
                       std::shared_ptr<const core::ForwardList> fl,
                       int32_t writer_entry_index);
  void MaybeGrant(TxnId txn, Obligation& ob);
  /// Forwards `ob` downstream once the data and (after a commit) every
  /// reader release are in. Never drains `ts`; callers run CheckDrain.
  void TryForward(TxnId txn, TxnState& ts, Obligation& ob);
  /// The run finished (committed or aborted): forward every slot that can
  /// go, then drain if none is left.
  void Finish(TxnRun& run, bool committed);
  void CheckDrain(TxnId txn);
  TxnState& EnsureTxn(TxnId txn, int32_t client_index);
  static Obligation& SlotOn(TxnState& ts, ItemId item);

  std::unique_ptr<core::WindowManager> wm_;
  // Shard whose OnRequest/OnReturn call is running; abort notices leave
  // from its server site.
  int32_t current_shard_ = 0;
  std::unordered_map<TxnId, TxnState> txns_;
};

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_SHARDED_H_
