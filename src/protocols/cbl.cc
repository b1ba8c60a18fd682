// Callback locking (CBL), the one client-caching protocol with its own
// engine (an extension beyond the paper's evaluation; §1 names the caching
// families, §6 defers the comparison). Clients cache data and *read
// permission* across transactions; a writer's exclusive request triggers
// callbacks to all caching clients and waits for their acknowledgements
// (deferred while a local transaction has the copy pinned). The other two
// families are hosted by the cc seam (cc/registry.cc): c-2PL is s-2PL plus
// a client data cache, and O2PL is OCC plus a client data cache and
// invalidation.
//
// CBL runs under sharding (EngineBase's routing): the per-item protocol state
// lives at the owning shard's server site, while the coordination plane
// (the wait edges on a core::PrecedenceGraph, abort decisions) stays global
// and instantaneous like every other engine (DESIGN.md §8). Cross-server
// commits run the classic client-coordinated 2PC; Validate() rejects the
// other commit paths.

#include "protocols/cbl.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/precedence_graph.h"

namespace gtpl::proto {
namespace {

class CblEngine : public EngineBase {
 public:
  explicit CblEngine(const SimConfig& config)
      : EngineBase(config),
        items_(static_cast<size_t>(config.workload.num_items)),
        clients_cbl_(static_cast<size_t>(config.num_clients)) {}

 protected:
  void SendRequest(TxnRun& run) override {
    ClientCbl& cc = clients_cbl_[static_cast<size_t>(run.client_index)];
    if (run.current_op == 0) cc.pins.clear();  // a fresh transaction
    const workload::Operation op = run.op();
    if (op.mode == LockMode::kShared) {
      auto cached = cc.cache.find(op.item);
      if (cached != cc.cache.end()) {
        // Read permission is retained across transactions: local access.
        cc.pins.insert(op.item);
        OpGranted(run, cached->second);
        return;
      }
    }
    const TxnId txn = run.id;
    const SiteId site = run.site();
    const int32_t shard = ShardOf(op.item);
    network().Send(site, ServerSiteOf(shard), "cbl-request",
                   [this, shard, txn, site, op] {
                     ServerOnRequest(shard, txn, site, op.item, op.mode);
                   });
  }

  void DoCommit(TxnRun& run) override {
    ClientCbl& cc = clients_cbl_[static_cast<size_t>(run.client_index)];
    std::vector<std::vector<db::ItemVersion>> updates_by(
        static_cast<size_t>(num_servers()));
    for (const OpRecord& record : run.records) {
      if (record.mode == LockMode::kExclusive) {
        updates_by[static_cast<size_t>(ShardOf(record.item))].push_back(
            {record.item, record.version_written});
        // CB-read downgrade: the writer keeps the copy with read permission.
        cc.cache[record.item] = record.version_written;
      } else {
        cc.cache[record.item] = record.version_read;
      }
    }
    FlushDeferredAcks(run.client_index);
    const TxnId txn = run.id;
    for (int32_t shard = 0; shard < num_servers(); ++shard) {
      std::vector<db::ItemVersion>& updates =
          updates_by[static_cast<size_t>(shard)];
      if (updates.empty()) continue;
      const uint64_t payload =
          net::kControlPayload + net::kDataPayload * updates.size();
      network().Send(
          run.site(), ServerSiteOf(shard), "cbl-commit",
          [this, shard, txn, updates = std::move(updates)] {
            ServerOnCommit(shard, txn, updates);
          },
          payload);
    }
    cc.pins.clear();
  }

  void OnClientAborted(TxnRun& run) override {
    ClientCbl& cc = clients_cbl_[static_cast<size_t>(run.client_index)];
    for (const OpRecord& record : run.records) {
      if (record.mode == LockMode::kExclusive) cc.cache.erase(record.item);
    }
    FlushDeferredAcks(run.client_index);
    cc.pins.clear();
    // If the victim held the exclusive lock or was queued, the server
    // cleaned that up at decision time (ServerAbort).
  }

 private:
  struct PendingReq {
    TxnId txn;
    SiteId site;
    LockMode mode;
  };
  struct ItemCbl {
    std::unordered_set<SiteId> copy_set;   // clients with read permission
    TxnId x_holder = kInvalidTxn;
    std::deque<PendingReq> queue;          // FIFO; head X may be collecting
    int32_t acks_outstanding = 0;          // callbacks pending for head X
  };
  struct ClientCbl {
    std::unordered_map<ItemId, Version> cache;
    std::unordered_set<ItemId> pins;       // items used by the current txn
    std::vector<ItemId> deferred_acks;     // callbacks answered at txn end
  };

  void ServerOnRequest(int32_t shard, TxnId txn, SiteId site, ItemId item,
                       LockMode mode) {
    NoteRequestAtServer(txn, item, mode, shard);
    if (Dead(txn)) return;
    ItemCbl& it = items_[static_cast<size_t>(item)];
    if (it.x_holder == kInvalidTxn && it.queue.empty()) {
      if (mode == LockMode::kShared) {
        GrantShared(txn, site, item);
        return;
      }
      it.queue.push_back(PendingReq{txn, site, mode});
      StartCallbackCollection(item);
      if (it.queue.empty() || it.queue.front().txn != txn) return;
      if (it.acks_outstanding == 0) GrantHead(item);
      return;
    }
    it.queue.push_back(PendingReq{txn, site, mode});
    if (AddWaitEdges(txn, item)) ServerAbort(txn, item);
  }

  void GrantShared(TxnId txn, SiteId site, ItemId item) {
    ItemCbl& it = items_[static_cast<size_t>(item)];
    it.copy_set.insert(site);
    const Version version = store().VersionOf(item);
    // Shared grants ship the data.
    network().Send(
        ServerSiteOf(ShardOf(item)), site, "cbl-grant+data",
        [this, txn, item, version] {
          TxnRun* run = FindRun(txn);
          if (run == nullptr || run->finished || run->doomed) {
            return;
          }
          GTPL_CHECK_EQ(run->op().item, item);
          ClientCbl& cc =
              clients_cbl_[static_cast<size_t>(run->client_index)];
          cc.cache[item] = version;
          cc.pins.insert(item);
          OpGranted(*run, version);
        },
        net::kControlPayload + net::kDataPayload);
  }

  /// Sends callbacks for the X request at the head of `item`'s queue.
  void StartCallbackCollection(ItemId item) {
    ItemCbl& it = items_[static_cast<size_t>(item)];
    GTPL_CHECK(!it.queue.empty());
    const PendingReq head = it.queue.front();
    GTPL_CHECK(head.mode == LockMode::kExclusive);
    std::vector<SiteId> targets;
    for (SiteId site : it.copy_set) {
      if (site != head.site) targets.push_back(site);
    }
    it.acks_outstanding = static_cast<int32_t>(targets.size());
    // Wait edges toward transactions that pin a cached copy right now.
    std::vector<TxnId> blockers;
    for (SiteId site : targets) {
      ClientCbl& cc = clients_cbl_[static_cast<size_t>(site - 1)];
      if (cc.pins.count(item) > 0) {
        TxnRun* pinner = ClientAt(site - 1).current.get();
        if (pinner != nullptr && !pinner->finished) {
          blockers.push_back(pinner->id);
        }
      }
      network().Send(ServerSiteOf(ShardOf(item)), site, "cbl-callback",
                     [this, site, item, collector = head.txn] {
                       ClientOnCallback(site, item, collector);
                     });
    }
    if (!blockers.empty() && graph_.AddWaits(head.txn, blockers)) {
      ServerAbort(head.txn, item);
    }
  }

  void ClientOnCallback(SiteId site, ItemId item, TxnId collector) {
    ClientCbl& cc = clients_cbl_[static_cast<size_t>(site - 1)];
    if (cc.pins.count(item) > 0) {
      // In use by the running transaction: answer when it ends. The pin may
      // postdate the collection start (local cache hits need no server
      // round), so the collector's wait edge is recorded here; a cycle
      // means the pinner closed a deadlock and is aborted. A callback can
      // outlive its collector: one that has committed since waits for
      // nothing, so, like an aborted one, it records no edge.
      cc.deferred_acks.push_back(item);
      TxnRun* pinner = ClientAt(site - 1).current.get();
      if (pinner != nullptr && !pinner->finished && !Dead(collector) &&
          !pinner->doomed && graph_.AddWaits(collector, {pinner->id})) {
        ServerAbort(pinner->id, item);
      }
      return;
    }
    cc.cache.erase(item);
    TxnRun* run = ClientAt(site - 1).current.get();
    const TxnId acker = run != nullptr ? run->id : kInvalidTxn;
    network().Send(site, ServerSiteOf(ShardOf(item)), "cbl-ack",
                   [this, site, item, acker] {
                     ServerOnAck(site, item, acker, /*pinned=*/false);
                   });
  }

  void FlushDeferredAcks(int32_t client_index) {
    ClientCbl& cc = clients_cbl_[static_cast<size_t>(client_index)];
    if (cc.deferred_acks.empty()) return;
    const SiteId site = client_index + 1;
    TxnRun* run = ClientAt(client_index).current.get();
    const TxnId acker = run != nullptr ? run->id : kInvalidTxn;
    for (ItemId item : cc.deferred_acks) {
      cc.cache.erase(item);
      network().Send(site, ServerSiteOf(ShardOf(item)), "cbl-ack",
                     [this, site, item, acker] {
                       ServerOnAck(site, item, acker, /*pinned=*/true);
                     });
    }
    cc.deferred_acks.clear();
  }

  void ServerOnAck(SiteId site, ItemId item, TxnId acker, bool pinned) {
    if (pinned && acker != kInvalidTxn) graph_.RemoveTxn(acker);
    ItemCbl& it = items_[static_cast<size_t>(item)];
    it.copy_set.erase(site);
    if (it.acks_outstanding > 0) {
      --it.acks_outstanding;
      if (it.acks_outstanding == 0 && !it.queue.empty() &&
          it.queue.front().mode == LockMode::kExclusive &&
          it.x_holder == kInvalidTxn) {
        GrantHead(item);
      }
    }
  }

  void GrantHead(ItemId item) {
    ItemCbl& it = items_[static_cast<size_t>(item)];
    while (!it.queue.empty()) {
      const PendingReq head = it.queue.front();
      if (Dead(head.txn)) {
        it.queue.pop_front();
        continue;
      }
      if (head.mode == LockMode::kShared) {
        if (it.x_holder != kInvalidTxn) return;
        it.queue.pop_front();
        graph_.RemoveRequestEdgesInto(head.txn);
        GrantShared(head.txn, head.site, item);
        continue;  // batch-grant consecutive shared requests
      }
      // Exclusive head.
      if (it.x_holder != kInvalidTxn) return;
      if (it.acks_outstanding == 0 &&
          std::none_of(it.copy_set.begin(), it.copy_set.end(),
                       [&head](SiteId s) { return s != head.site; })) {
        it.queue.pop_front();
        it.x_holder = head.txn;
        graph_.RemoveRequestEdgesInto(head.txn);
        const Version version = store().VersionOf(item);
        it.copy_set.insert(head.site);
        network().Send(
            ServerSiteOf(ShardOf(item)), head.site, "cbl-grant-x+data",
            [this, txn = head.txn, item, version] {
              TxnRun* run = FindRun(txn);
              if (run == nullptr || run->finished || run->doomed) {
                return;
              }
              GTPL_CHECK_EQ(run->op().item, item);
              ClientCbl& cc =
                  clients_cbl_[static_cast<size_t>(run->client_index)];
              cc.pins.insert(item);
              OpGranted(*run, version);
            },
            net::kControlPayload + net::kDataPayload);
        return;  // exclusive: nothing behind it can be granted
      }
      StartCallbackCollection(item);
      if (it.acks_outstanding == 0 && it.x_holder == kInvalidTxn &&
          !it.queue.empty() && it.queue.front().mode == LockMode::kExclusive) {
        // No callbacks were actually needed (copy set empty or only the
        // requester); grant immediately rather than stalling forever.
        continue;
      }
      return;
    }
  }

  /// `shard`'s cbl-commit arrived; DoCommit sends one only to shards the
  /// transaction wrote.
  void ServerOnCommit(int32_t shard, TxnId txn,
                      const std::vector<db::ItemVersion>& updates) {
    EmitRelease(txn, shard, ServerSiteOf(shard),
                static_cast<int64_t>(updates.size()), "", tracer());
    for (const db::ItemVersion& update : updates) {
      store().Install(update.item, update.version);
      ItemCbl& it = items_[static_cast<size_t>(update.item)];
      GTPL_CHECK_EQ(it.x_holder, txn);
      it.x_holder = kInvalidTxn;
      GrantHead(update.item);
    }
    // Idempotent across the per-shard commit messages of one txn.
    graph_.RemoveTxn(txn);
  }

  void ServerAbort(TxnId victim, ItemId requested_item) {
    TxnRun* run = FindRun(victim);
    GTPL_CHECK(run != nullptr && !run->finished && !run->doomed)
        << "cbl victim " << victim << " is not a live txn";
    graph_.RemoveTxn(victim);
    // Drop the victim's queued requests and exclusive holds.
    for (size_t i = 0; i < items_.size(); ++i) {
      ItemCbl& it = items_[i];
      const bool head_was_victim =
          !it.queue.empty() && it.queue.front().txn == victim;
      auto pos = std::remove_if(
          it.queue.begin(), it.queue.end(),
          [victim](const PendingReq& r) { return r.txn == victim; });
      it.queue.erase(pos, it.queue.end());
      if (it.x_holder == victim) it.x_holder = kInvalidTxn;
      if (head_was_victim) it.acks_outstanding = 0;
      if (it.x_holder == kInvalidTxn && !it.queue.empty()) {
        GrantHead(static_cast<ItemId>(i));
      }
    }
    ServerAbortDecision(victim, ServerSiteOf(ShardOf(requested_item)));
  }

  /// Posts `txn`'s waits behind `item`'s holder and queue; true iff they
  /// closed a cycle.
  bool AddWaitEdges(TxnId txn, ItemId item) {
    ItemCbl& it = items_[static_cast<size_t>(item)];
    std::vector<TxnId> blockers;
    if (it.x_holder != kInvalidTxn) blockers.push_back(it.x_holder);
    for (const PendingReq& r : it.queue) {
      if (r.txn == txn) break;
      blockers.push_back(r.txn);  // FIFO: everything ahead blocks
    }
    return graph_.AddWaits(txn, blockers);
  }

  core::PrecedenceGraph graph_;
  std::vector<ItemCbl> items_;
  std::vector<ClientCbl> clients_cbl_;
};

}  // namespace

std::unique_ptr<EngineBase> MakeCblEngine(const SimConfig& config) {
  return std::make_unique<CblEngine>(config);
}

}  // namespace gtpl::proto
