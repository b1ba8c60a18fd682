// Client-caching concurrency-control protocols (extensions beyond the
// paper's evaluation; §1 names the families, §6 defers the comparison):
//
//  * c-2PL  — caching 2PL: clients cache *data* across transactions; every
//    access still takes a per-transaction server lock, but the reply omits
//    the data when the cached copy is current. With negligible transmission
//    delay (the paper's WAN model) it behaves like s-2PL in rounds — an
//    honest negative result the comparison bench shows.
//  * CBL    — callback locking: clients cache data and *read permission*
//    across transactions; a writer's exclusive request triggers callbacks to
//    all caching clients and waits for their acknowledgements (deferred
//    while a local transaction has the copy pinned).
//  * O2PL   — optimistic 2PL: clients read/write cached copies with no
//    synchronous permission checks; commit runs a server-side backward
//    certification (validate read versions, install writes, invalidate
//    remote copies). Conflicts cost aborts instead of blocking.
//
// All three run under sharding (ShardedEngineBase): the per-item protocol
// state lives at the owning shard's server site, while the coordination
// plane (waits-for graph, abort decisions) stays global and instantaneous
// like every other engine (DESIGN.md §8). Cross-server c-2PL/CBL commits
// run the classic client-coordinated 2PC; O2PL certifies OCC-style, with
// per-shard validates, reservations, and a decision round (Validate()
// restricts sharded caching runs to the classic commit path). With
// num_servers == 1 each engine reproduces its pre-sharding self bit for
// bit (the cc invariants battery and the legacy goldens pin this).

#include "protocols/caching.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "db/lock_table.h"
#include "db/waits_for_graph.h"
#include "protocols/sharded.h"

namespace gtpl::proto {
namespace {

// ---------------------------------------------------------------------------
// c-2PL
// ---------------------------------------------------------------------------

/// Caching 2PL. Server side is a strict-2PL lock table exactly like s-2PL;
/// the only difference is client data caching, which saves payload bytes but
/// (by design of the latency model) no rounds. Cache hits are counted so the
/// protocol-comparison bench can report the (lack of) benefit.
class C2plEngine : public ShardedEngineBase {
 public:
  explicit C2plEngine(const SimConfig& config)
      : ShardedEngineBase(config),
        lock_table_(config.workload.num_items),
        caches_(static_cast<size_t>(config.num_clients)) {}

  int64_t cache_hits() const { return cache_hits_; }

 protected:
  void SendRequest(TxnRun& run) override {
    const TxnId txn = run.id;
    const SiteId site = run.site();
    const workload::Operation op = run.op();
    const int32_t shard = ShardOf(op.item);
    network().Send(site, ServerSiteOf(shard), "lock-request",
                   [this, shard, txn, site, op] {
                     ServerOnRequest(shard, txn, site, op.item, op.mode);
                   });
  }

  void DoCommit(TxnRun& run) override {
    // One release message per participant shard (read-only shards included:
    // their locks are held there too). The lock table itself is global, so
    // the locks drop when the *last* release arrives — strictness holds,
    // and with num_servers == 1 this is the original single message.
    std::vector<std::vector<std::pair<ItemId, Version>>> updates_by(
        static_cast<size_t>(num_servers()));
    std::vector<bool> touched(static_cast<size_t>(num_servers()), false);
    auto& cache = caches_[static_cast<size_t>(run.client_index)];
    for (const OpRecord& record : run.records) {
      const size_t shard = static_cast<size_t>(ShardOf(record.item));
      touched[shard] = true;
      if (record.mode == LockMode::kExclusive) {
        updates_by[shard].emplace_back(record.item, record.version_written);
        cache[record.item] = record.version_written;
      } else {
        cache[record.item] = record.version_read;
      }
    }
    const TxnId txn = run.id;
    int32_t participants = 0;
    for (const bool t : touched) participants += t ? 1 : 0;
    pending_releases_[txn] = participants;
    for (int32_t shard = 0; shard < num_servers(); ++shard) {
      if (!touched[static_cast<size_t>(shard)]) continue;
      network().Send(
          run.site(), ServerSiteOf(shard), "release",
          [this, shard, txn,
           updates = std::move(updates_by[static_cast<size_t>(shard)])] {
            ServerOnRelease(shard, txn, updates);
          });
    }
  }

  void OnClientAborted(TxnRun& run) override {
    // Locally updated copies are dirty; drop them.
    auto& cache = caches_[static_cast<size_t>(run.client_index)];
    for (const OpRecord& record : run.records) {
      if (record.mode == LockMode::kExclusive) cache.erase(record.item);
    }
  }

  void FillProtocolMetrics(RunResult* result) override {
    ShardedEngineBase::FillProtocolMetrics(result);
  }

  bool ShardVote(int32_t shard, TxnId txn, bool speculative) override {
    (void)shard;
    (void)speculative;
    // The locks the shard holds for `txn` are the promise; a doomed txn
    // never reaches its commit point, so this is a safety net.
    return server_aborted_.count(txn) == 0;
  }

  void OnCommitDecision(int32_t shard, TxnId txn) override {
    // The per-shard release messages (DoCommit) carry the actual work.
    (void)shard;
    (void)txn;
  }

 private:
  void ServerOnRequest(int32_t shard, TxnId txn, SiteId site, ItemId item,
                       LockMode mode) {
    NoteRequestAtServer(txn, item, mode, shard);
    if (server_aborted_.count(txn) > 0) return;
    const db::LockResult outcome = lock_table_.Request(txn, item, mode);
    if (outcome == db::LockResult::kGranted) {
      SendGrant(txn, site, item);
      return;
    }
    wfg_.AddWaits(txn, lock_table_.Blockers(txn, item));
    if (!wfg_.CycleThrough(txn).empty()) ServerAbort(txn, shard);
  }

  void SendGrant(TxnId txn, SiteId site, ItemId item) {
    const int32_t shard = ShardOf(item);
    const Version version = store().VersionOf(item);
    auto& cache = caches_[static_cast<size_t>(site - 1)];
    auto cached = cache.find(item);
    const bool hit = cached != cache.end() && cached->second == version;
    if (hit) ++cache_hits_;
    network().Send(
        ServerSiteOf(shard), site, hit ? "grant(validate)" : "grant+data",
        [this, txn, item, version] {
          TxnRun* run = FindRun(txn);
          if (run == nullptr || run->finished || run->doomed) {
            return;
          }
          GTPL_CHECK_EQ(run->op().item, item);
          OpGranted(*run, version);
        },
        hit ? net::kControlPayload
            : net::kControlPayload + net::kDataPayload);
  }

  void ServerOnRelease(
      int32_t shard, TxnId txn,
      const std::vector<std::pair<ItemId, Version>>& updates) {
    GTPL_CHECK_EQ(server_aborted_.count(txn), 0u);
    if (tracer().enabled()) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kLockRelease;
      event.txn = txn;
      event.site = ServerSiteOf(shard);
      event.shard = shard;
      event.payload = static_cast<int64_t>(updates.size());
      tracer().Emit(std::move(event));
    }
    for (const auto& [item, version] : updates) {
      store().Install(item, version);
      const int64_t lsn = server_wal().Append(db::LogRecordKind::kInstall,
                                              txn, item, version);
      server_wal().Force(lsn);
      // Remote cached copies of `item` are now stale; they fail validation
      // on their next access (detection-based consistency).
    }
    MaybeGcClientLogs();
    auto pending = pending_releases_.find(txn);
    GTPL_CHECK(pending != pending_releases_.end());
    if (--pending->second > 0) return;  // locks drop with the last release
    pending_releases_.erase(pending);
    wfg_.RemoveTxn(txn);
    ReleaseLocks(txn);
  }

  void ReleaseLocks(TxnId txn) {
    lock_table_.ReleaseAll(txn, [this](TxnId granted, ItemId item,
                                       LockMode mode) {
      (void)mode;
      wfg_.ClearWaits(granted);
      TxnRun* run = FindRun(granted);
      if (run != nullptr) SendGrant(granted, run->site(), item);
    });
  }

  void ServerAbort(TxnId victim, int32_t shard) {
    GTPL_CHECK(server_aborted_.insert(victim).second);
    wfg_.RemoveTxn(victim);
    ReleaseLocks(victim);
    TxnRun* run = FindRun(victim);
    GTPL_CHECK(run != nullptr);
    ServerAbortDecision(victim, run->site(), ServerSiteOf(shard));
  }

  db::LockTable lock_table_;
  db::WaitsForGraph wfg_;
  std::unordered_set<TxnId> server_aborted_;
  std::unordered_map<TxnId, int32_t> pending_releases_;
  std::vector<std::unordered_map<ItemId, Version>> caches_;
  int64_t cache_hits_ = 0;
};

// ---------------------------------------------------------------------------
// CBL — callback locking
// ---------------------------------------------------------------------------

class CblEngine : public ShardedEngineBase {
 public:
  explicit CblEngine(const SimConfig& config)
      : ShardedEngineBase(config),
        items_(static_cast<size_t>(config.workload.num_items)),
        clients_cbl_(static_cast<size_t>(config.num_clients)) {}

  int64_t cache_hits() const { return cache_hits_; }
  int64_t callbacks_sent() const { return callbacks_sent_; }

 protected:
  void SendRequest(TxnRun& run) override {
    ClientCbl& cc = clients_cbl_[static_cast<size_t>(run.client_index)];
    if (run.current_op == 0) cc.pins.clear();  // a fresh transaction
    const workload::Operation op = run.op();
    if (op.mode == LockMode::kShared) {
      auto cached = cc.cache.find(op.item);
      if (cached != cc.cache.end()) {
        // Read permission is retained across transactions: local access.
        ++cache_hits_;
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
    std::vector<std::vector<std::pair<ItemId, Version>>> updates_by(
        static_cast<size_t>(num_servers()));
    for (const OpRecord& record : run.records) {
      if (record.mode == LockMode::kExclusive) {
        updates_by[static_cast<size_t>(ShardOf(record.item))].emplace_back(
            record.item, record.version_written);
        // CB-read downgrade: the writer keeps the copy with read permission.
        cc.cache[record.item] = record.version_written;
      } else {
        cc.cache[record.item] = record.version_read;
      }
    }
    FlushDeferredAcks(run.client_index);
    const TxnId txn = run.id;
    for (int32_t shard = 0; shard < num_servers(); ++shard) {
      std::vector<std::pair<ItemId, Version>>& updates =
          updates_by[static_cast<size_t>(shard)];
      if (updates.empty()) continue;
      const uint64_t payload =
          net::kControlPayload + net::kDataPayload * updates.size();
      network().Send(
          run.site(), ServerSiteOf(shard), "cbl-commit",
          [this, txn, updates = std::move(updates)] {
            ServerOnCommit(txn, updates);
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

  void FillProtocolMetrics(RunResult* result) override {
    ShardedEngineBase::FillProtocolMetrics(result);
  }

  bool ShardVote(int32_t shard, TxnId txn, bool speculative) override {
    (void)shard;
    (void)speculative;
    return server_aborted_.count(txn) == 0;
  }

  void OnCommitDecision(int32_t shard, TxnId txn) override {
    // The per-shard cbl-commit messages (DoCommit) carry the actual work.
    (void)shard;
    (void)txn;
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
    if (server_aborted_.count(txn) > 0) return;
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
    AddWaitEdges(txn, item);
    if (!wfg_.CycleThrough(txn).empty()) ServerAbort(txn, item);
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
      ++callbacks_sent_;
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
    if (!blockers.empty()) {
      wfg_.AddWaits(head.txn, blockers);
      if (!wfg_.CycleThrough(head.txn).empty()) {
        ServerAbort(head.txn, item);
      }
    }
  }

  void ClientOnCallback(SiteId site, ItemId item, TxnId collector) {
    ClientCbl& cc = clients_cbl_[static_cast<size_t>(site - 1)];
    if (cc.pins.count(item) > 0) {
      // In use by the running transaction: answer when it ends. The pin may
      // postdate the collection start (local cache hits need no server
      // round), so the collector's wait edge is recorded here; a cycle
      // means the pinner closed a deadlock and is aborted.
      cc.deferred_acks.push_back(item);
      TxnRun* pinner = ClientAt(site - 1).current.get();
      if (pinner != nullptr && !pinner->finished &&
          server_aborted_.count(collector) == 0 &&
          server_aborted_.count(pinner->id) == 0) {
        wfg_.AddWaits(collector, {pinner->id});
        if (!wfg_.CycleThrough(collector).empty()) {
          ServerAbort(pinner->id, item);
        }
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
    if (pinned && acker != kInvalidTxn) wfg_.RemoveTxn(acker);
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
      if (server_aborted_.count(head.txn) > 0) {
        it.queue.pop_front();
        continue;
      }
      if (head.mode == LockMode::kShared) {
        if (it.x_holder != kInvalidTxn) return;
        it.queue.pop_front();
        wfg_.ClearWaits(head.txn);
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
        wfg_.ClearWaits(head.txn);
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

  void ServerOnCommit(TxnId txn,
                      const std::vector<std::pair<ItemId, Version>>& updates) {
    GTPL_CHECK_EQ(server_aborted_.count(txn), 0u);
    if (tracer().enabled()) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kLockRelease;
      event.txn = txn;
      event.site = updates.empty() ? kServerSite
                                   : ServerSiteOf(ShardOf(updates[0].first));
      event.payload = static_cast<int64_t>(updates.size());
      tracer().Emit(std::move(event));
    }
    for (const auto& [item, version] : updates) {
      store().Install(item, version);
      const int64_t lsn = server_wal().Append(db::LogRecordKind::kInstall,
                                              txn, item, version);
      server_wal().Force(lsn);
      ItemCbl& it = items_[static_cast<size_t>(item)];
      GTPL_CHECK_EQ(it.x_holder, txn);
      it.x_holder = kInvalidTxn;
      GrantHead(item);
    }
    MaybeGcClientLogs();
    // Idempotent across the per-shard commit messages of one txn.
    wfg_.RemoveTxn(txn);
  }

  void ServerAbort(TxnId victim, ItemId requested_item) {
    GTPL_CHECK(server_aborted_.insert(victim).second);
    wfg_.RemoveTxn(victim);
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
    TxnRun* run = FindRun(victim);
    GTPL_CHECK(run != nullptr);
    ServerAbortDecision(victim, run->site(),
                        ServerSiteOf(ShardOf(requested_item)));
  }

  void AddWaitEdges(TxnId txn, ItemId item) {
    ItemCbl& it = items_[static_cast<size_t>(item)];
    std::vector<TxnId> blockers;
    if (it.x_holder != kInvalidTxn) blockers.push_back(it.x_holder);
    for (const PendingReq& r : it.queue) {
      if (r.txn == txn) break;
      blockers.push_back(r.txn);  // FIFO: everything ahead blocks
    }
    wfg_.AddWaits(txn, blockers);
  }

  db::WaitsForGraph wfg_;
  std::vector<ItemCbl> items_;
  std::vector<ClientCbl> clients_cbl_;
  std::unordered_set<TxnId> server_aborted_;
  int64_t cache_hits_ = 0;
  int64_t callbacks_sent_ = 0;
};

// ---------------------------------------------------------------------------
// O2PL — optimistic with server-side certification
// ---------------------------------------------------------------------------

/// Certification under sharding mirrors OccEngine: a single-shard commit is
/// the original one-round certify; a cross-server one fans per-shard
/// validates (which double as prepares), reserves validated items so
/// concurrent certifications on other shards cannot invalidate a promised
/// install, and installs + invalidates at decision arrival.
class O2plEngine : public ShardedEngineBase {
 public:
  explicit O2plEngine(const SimConfig& config)
      : ShardedEngineBase(config),
        copy_sets_(static_cast<size_t>(config.workload.num_items)),
        caches_(static_cast<size_t>(config.num_clients)),
        reserved_(static_cast<size_t>(config.num_servers)),
        prepared_(static_cast<size_t>(config.num_servers)) {}

  int64_t cache_hits() const { return cache_hits_; }
  int64_t certification_failures() const { return certification_failures_; }

 protected:
  void SendRequest(TxnRun& run) override {
    const workload::Operation op = run.op();
    auto& cache = caches_[static_cast<size_t>(run.client_index)];
    auto cached = cache.find(op.item);
    if (cached != cache.end()) {
      ++cache_hits_;
      OpGranted(run, cached->second);  // optimistic local access
      return;
    }
    const TxnId txn = run.id;
    const SiteId site = run.site();
    const int32_t shard = ShardOf(op.item);
    network().Send(
        site, ServerSiteOf(shard), "o2pl-fetch",
        [this, shard, txn, site, item = op.item, mode = op.mode] {
          NoteRequestAtServer(txn, item, mode, shard);
          copy_sets_[static_cast<size_t>(item)].insert(site);
          const Version version = store().VersionOf(item);
          network().Send(ServerSiteOf(shard), site, "o2pl-data",
                         [this, txn, item, version] {
                           TxnRun* run2 = FindRun(txn);
                           if (run2 == nullptr || run2->finished ||
                               run2->doomed) {
                             return;
                           }
                           GTPL_CHECK_EQ(run2->op().item, item);
                           caches_[static_cast<size_t>(
                               run2->client_index)][item] = version;
                           OpGranted(*run2, version);
                         },
                         net::kControlPayload + net::kDataPayload);
        });
  }

  void StartCommit(TxnRun& run) override {
    GTPL_CHECK(!run.finished);
    GTPL_CHECK(!run.doomed);
    const TxnId txn = run.id;
    std::vector<int32_t> participants = ParticipantsOf(run);
    if (participants.size() <= 1) {
      GTPL_CHECK_EQ(participants.size(), 1u);
      SendCertify(participants[0], run, /*multi=*/false);
      return;
    }
    // Phase one, as in ShardedEngineBase::StartCommit: the coordinator
    // (client) forces its prepare record, then the validates fan out.
    ClientState& client = ClientAt(run.client_index);
    const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, txn,
                                           kInvalidItem, 0);
    const SimTime force_delay = client.wal->Force(lsn);
    VoteCtx ctx;
    ctx.votes_pending = static_cast<int32_t>(participants.size());
    ctx.prepares_pending = static_cast<int32_t>(participants.size());
    ctx.participants = participants;
    votes_[txn] = std::move(ctx);
    auto send_validates = [this, txn,
                           participants = std::move(participants)] {
      TxnRun* current = FindRun(txn);
      if (current == nullptr || current->finished || current->doomed) {
        votes_.erase(txn);
        return;
      }
      votes_.at(txn).sent_time = simulator().Now();
      for (int32_t shard : participants) {
        SendCertify(shard, *current, /*multi=*/true);
      }
    };
    if (force_delay > 0) {
      simulator().Schedule(force_delay, std::move(send_validates));
    } else {
      send_validates();
    }
  }

  void DoCommit(TxnRun& run) override {
    // Keep the successfully installed versions cached locally.
    auto& cache = caches_[static_cast<size_t>(run.client_index)];
    for (const OpRecord& record : run.records) {
      if (record.mode == LockMode::kExclusive) {
        cache[record.item] = record.version_written;
      }
    }
  }

  void OnClientAborted(TxnRun& run) override {
    // Stale reads caused the failure; evict everything the txn touched so
    // the retry fetches fresh copies.
    auto& cache = caches_[static_cast<size_t>(run.client_index)];
    for (const OpRecord& record : run.records) cache.erase(record.item);
    if (!run.LastOp() || run.records.size() < run.spec.ops.size()) {
      // also evict the item of the op in flight, if cached stale
      cache.erase(run.op().item);
    }
    votes_.erase(run.id);
    std::vector<int32_t> participants = ParticipantsOf(run);
    if (participants.size() <= 1) return;  // nothing was reserved
    // Shards that validated before the failing shard doomed the
    // transaction still hold reservations; release them. Idempotent: a
    // shard that never prepared this transaction ignores the message.
    for (int32_t shard : participants) {
      network().Send(run.site(), ServerSiteOf(shard), "o2pl-abort",
                     [this, shard, txn = run.id] {
                       auto& shard_prepared =
                           prepared_[static_cast<size_t>(shard)];
                       auto it = shard_prepared.find(txn);
                       if (it == shard_prepared.end()) return;
                       ClearReservations(shard, it->second);
                       shard_prepared.erase(it);
                     });
    }
  }

  bool ShardVote(int32_t shard, TxnId txn, bool speculative) override {
    (void)shard;
    (void)txn;
    (void)speculative;
    GTPL_CHECK(false) << "O2PL overrides StartCommit; base 2PC is unreachable";
    return false;
  }

  void OnCommitDecision(int32_t shard, TxnId txn) override {
    (void)shard;
    (void)txn;
    GTPL_CHECK(false) << "O2PL overrides StartCommit; base 2PC is unreachable";
  }

  void FillProtocolMetrics(RunResult* result) override {
    ShardedEngineBase::FillProtocolMetrics(result);
  }

 private:
  struct Slot {
    TxnId writer = kInvalidTxn;
    int32_t readers = 0;
  };
  struct VoteCtx {
    int32_t votes_pending = 0;
    int32_t prepares_pending = 0;
    bool all_yes = true;
    std::vector<int32_t> participants;
    SimTime sent_time = 0;
  };

  void SendCertify(int32_t shard, TxnRun& run, bool multi) {
    std::vector<OpRecord> slice;
    for (const OpRecord& record : run.records) {
      if (ShardOf(record.item) != shard) continue;
      slice.push_back(record);
    }
    // The certify ships the shard's read versions and write values, so the
    // later decision message can stay control-only.
    const uint64_t payload =
        net::kControlPayload +
        net::kDataPayload * static_cast<uint64_t>(slice.size());
    network().Send(
        run.site(), ServerSiteOf(shard), "o2pl-certify",
        [this, shard, txn = run.id, site = run.site(),
         slice = std::move(slice), multi] {
          OnCertify(shard, txn, site, std::move(slice), multi);
        },
        payload);
  }

  void OnCertify(int32_t shard, TxnId txn, SiteId client_site,
                 std::vector<OpRecord> records, bool multi) {
    if (multi) {
      if (tracer().enabled()) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::kPrepare;
        event.txn = txn;
        event.shard = shard;
        event.site = ServerSiteOf(shard);
        tracer().Emit(std::move(event));
      }
      auto vote_it = votes_.find(txn);
      if (vote_it != votes_.end() &&
          --vote_it->second.prepares_pending == 0) {
        TxnRun* owner = FindRun(txn);
        if (owner != nullptr && !owner->finished) {
          owner->span.commit_prepare =
              simulator().Now() - vote_it->second.sent_time;
        }
      }
    }
    TxnRun* run = FindRun(txn);
    const bool alive = run != nullptr && !run->finished && !run->doomed;
    const bool ok = alive && ValidateSlice(shard, records);
    if (!multi) {
      if (!ok) {
        if (alive) {
          ++certification_failures_;
          ServerAbortDecision(txn, run->site(), ServerSiteOf(shard));
        }
        return;
      }
      // Validate + install are atomic at the server: the validation instant
      // is the serialization point, then the commit-ok closes the round.
      InstallCertified(shard, txn, client_site, records);
      network().Send(ServerSiteOf(shard), client_site, "o2pl-commit-ok",
                     [this, txn] {
                       TxnRun* target = FindRun(txn);
                       if (target == nullptr || target->finished ||
                           target->doomed) {
                         return;
                       }
                       FinalizeCommit(*target);
                     });
      return;
    }
    if (ok) {
      Reserve(shard, txn, records);
      prepared_[static_cast<size_t>(shard)][txn] = std::move(records);
      // The participant forces its own prepare record before voting yes.
      const int64_t lsn = server_wal().Append(db::LogRecordKind::kPrepare,
                                              txn, kInvalidItem, 0);
      server_wal().Force(lsn);
    } else if (alive) {
      ++certification_failures_;
      ServerAbortDecision(txn, run->site(), ServerSiteOf(shard));
    }
    // client_site was captured at send time: the vote must be deliverable
    // even when the run is already gone (it is dropped at tally time).
    network().Send(ServerSiteOf(shard), client_site, "vote",
                   [this, txn, shard, ok] { OnO2plVote(txn, shard, ok); });
  }

  void OnO2plVote(TxnId txn, int32_t shard, bool yes) {
    if (tracer().enabled()) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kVote;
      event.txn = txn;
      event.shard = shard;
      event.flag = yes;
      tracer().Emit(std::move(event));
    }
    auto it = votes_.find(txn);
    if (it == votes_.end()) return;
    VoteCtx& ctx = it->second;
    ctx.all_yes = ctx.all_yes && yes;
    if (--ctx.votes_pending > 0) return;
    const bool all_yes = ctx.all_yes;
    const SimTime sent_time = ctx.sent_time;
    const std::vector<int32_t> participants = std::move(ctx.participants);
    votes_.erase(it);
    TxnRun* run = FindRun(txn);
    if (run == nullptr || run->finished || run->doomed) return;
    if (!all_yes) {
      // A no vote came with the voting shard's abort decision, which
      // doomed the run instantly — unreachable in practice; safety net.
      return;
    }
    run->span.commit_vote =
        simulator().Now() - sent_time - run->span.commit_prepare;
    run->commit_flights = 2;
    if (measuring()) {
      ++cross_server_commits_;
      commit_participants_.Add(static_cast<double>(participants.size()));
    }
    const SiteId from = run->site();
    for (int32_t participant : participants) {
      network().Send(
          from, ServerSiteOf(participant), "commit-decision",
          [this, participant, txn] { OnO2plDecision(participant, txn); });
    }
    EngineBase::StartCommit(*run);
  }

  void OnO2plDecision(int32_t shard, TxnId txn) {
    if (tracer().enabled()) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kDecide;
      event.txn = txn;
      event.shard = shard;
      event.site = ServerSiteOf(shard);
      tracer().Emit(std::move(event));
    }
    server_wal().Append(db::LogRecordKind::kCommit, txn, kInvalidItem, 0);
    auto& shard_prepared = prepared_[static_cast<size_t>(shard)];
    auto it = shard_prepared.find(txn);
    GTPL_CHECK(it != shard_prepared.end()) << "decision for unprepared txn";
    const std::vector<OpRecord> records = std::move(it->second);
    shard_prepared.erase(it);
    TxnRun* run = FindRun(txn);
    const SiteId committer = run != nullptr ? run->site() : kInvalidTxn;
    InstallCertified(shard, txn, committer, records);
    ClearReservations(shard, records);
  }

  bool ValidateSlice(int32_t shard, const std::vector<OpRecord>& records) {
    const auto& slots = reserved_[static_cast<size_t>(shard)];
    for (const OpRecord& record : records) {
      // Backward validation: the read version must still be committed.
      if (store().VersionOf(record.item) != record.version_read) {
        return false;
      }
      // And no concurrently prepared transaction may hold a conflicting
      // reservation (its install is already promised).
      auto it = slots.find(record.item);
      if (it == slots.end()) continue;
      const Slot& slot = it->second;
      if (slot.writer != kInvalidTxn) return false;
      if (slot.readers > 0 && record.mode == LockMode::kExclusive) {
        return false;
      }
    }
    return true;
  }

  void Reserve(int32_t shard, TxnId txn,
               const std::vector<OpRecord>& records) {
    auto& slots = reserved_[static_cast<size_t>(shard)];
    for (const OpRecord& record : records) {
      Slot& slot = slots[record.item];
      if (record.mode == LockMode::kExclusive) {
        GTPL_CHECK_EQ(slot.writer, kInvalidTxn);
        slot.writer = txn;
      } else {
        ++slot.readers;
      }
    }
  }

  void ClearReservations(int32_t shard,
                         const std::vector<OpRecord>& records) {
    auto& slots = reserved_[static_cast<size_t>(shard)];
    for (const OpRecord& record : records) {
      auto it = slots.find(record.item);
      GTPL_CHECK(it != slots.end());
      Slot& slot = it->second;
      if (record.mode == LockMode::kExclusive) {
        slot.writer = kInvalidTxn;
      } else {
        --slot.readers;
      }
      if (slot.readers == 0 && slot.writer == kInvalidTxn) slots.erase(it);
    }
  }

  /// Install + invalidate for the certified records of one shard.
  /// `committer_site` keeps its cached copies; everyone else's are stale.
  void InstallCertified(int32_t shard, TxnId txn, SiteId committer_site,
                        const std::vector<OpRecord>& records) {
    if (tracer().enabled()) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kLockRelease;
      event.txn = txn;
      event.site = ServerSiteOf(shard);
      event.shard = shard;
      event.payload = static_cast<int64_t>(records.size());
      event.label = "certified";
      tracer().Emit(std::move(event));
    }
    for (const OpRecord& record : records) {
      if (record.mode != LockMode::kExclusive) continue;
      store().Install(record.item, record.version_written);
      const int64_t lsn = server_wal().Append(db::LogRecordKind::kInstall,
                                              txn, record.item,
                                              record.version_written);
      server_wal().Force(lsn);
      // Invalidate remote copies.
      auto& copies = copy_sets_[static_cast<size_t>(record.item)];
      for (SiteId other : copies) {
        if (other == committer_site) continue;
        network().Send(ServerSiteOf(shard), other, "o2pl-invalidate",
                       [this, other, item = record.item] {
                         caches_[static_cast<size_t>(other - 1)].erase(item);
                       });
      }
      copies.clear();
      if (committer_site != kInvalidTxn) copies.insert(committer_site);
    }
    MaybeGcClientLogs();
  }

  std::vector<std::unordered_set<SiteId>> copy_sets_;
  std::vector<std::unordered_map<ItemId, Version>> caches_;
  std::vector<std::unordered_map<ItemId, Slot>> reserved_;
  std::vector<std::unordered_map<TxnId, std::vector<OpRecord>>> prepared_;
  std::unordered_map<TxnId, VoteCtx> votes_;
  int64_t cache_hits_ = 0;
  int64_t certification_failures_ = 0;
};

}  // namespace

std::unique_ptr<EngineBase> MakeCachingEngine(const SimConfig& config) {
  switch (config.protocol) {
    case Protocol::kC2pl:
      return std::make_unique<C2plEngine>(config);
    case Protocol::kCbl:
      return std::make_unique<CblEngine>(config);
    case Protocol::kO2pl:
      return std::make_unique<O2plEngine>(config);
    default:
      GTPL_CHECK(false) << "not a caching protocol";
  }
  return nullptr;
}

}  // namespace gtpl::proto
