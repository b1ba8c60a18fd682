#include "cc/occ.h"

#include <utility>

#include "common/check.h"

namespace gtpl::cc {

using proto::SimConfig;

OccEngine::OccEngine(const SimConfig& config, bool cache_data)
    : EngineBase(config),
      reserved_(static_cast<size_t>(config.num_servers)),
      prepared_(static_cast<size_t>(config.num_servers)),
      cache_data_(cache_data) {
  if (cache_data_) {
    caches_.resize(static_cast<size_t>(config.num_clients));
    copy_sets_.resize(static_cast<size_t>(config.workload.num_items));
  }
}

// ---------------------------------------------------------------------------
// Read phase: one lock-free request/data round per operation
// ---------------------------------------------------------------------------

void OccEngine::SendRequest(TxnRun& run) {
  const workload::Operation op = run.op();
  if (cache_data_) {
    const auto& cache = caches_[static_cast<size_t>(run.client_index)];
    auto cached = cache.find(op.item);
    if (cached != cache.end()) {
      OpGranted(run, cached->second);  // optimistic local access
      return;
    }
  }
  const TxnId txn = run.id;
  const SiteId site = run.site();
  const int32_t shard = ShardOf(op.item);
  network().Send(site, ServerSiteOf(shard), "read-request",
                 [this, shard, txn, site, op] {
                   OnRead(shard, txn, site, op.item, op.mode);
                 });
}

void OccEngine::OnRead(int32_t shard, TxnId txn, SiteId client_site,
                       ItemId item, LockMode mode) {
  NoteRequestAtServer(txn, item, mode, shard);
  TxnRun* run = FindRun(txn);
  if (run == nullptr) return;
  if (cache_data_) copy_sets_[static_cast<size_t>(item)].insert(client_site);
  const Version version = store().VersionOf(item);
  network().Send(
      ServerSiteOf(shard), run->site(), "data",
      [this, txn, item, version] {
        TxnRun* target = FindRun(txn);
        if (target == nullptr || target->finished || target->doomed) {
          return;
        }
        GTPL_CHECK_EQ(target->op().item, item);
        if (cache_data_) {
          caches_[static_cast<size_t>(target->client_index)][item] = version;
        }
        OpGranted(*target, version);
      },
      net::kControlPayload + net::kDataPayload);
}

// ---------------------------------------------------------------------------
// Commit: backward validation at the owning server(s)
// ---------------------------------------------------------------------------

void OccEngine::StartCommit(TxnRun& run) {
  GTPL_CHECK(!run.finished);
  GTPL_CHECK(!run.doomed);
  std::vector<int32_t> participants = proto::ShardsOf(config(), run);
  if (participants.size() <= 1) {
    GTPL_CHECK_EQ(participants.size(), 1u);
    SendValidate(participants[0], run, /*multi=*/false);
    return;
  }
  StartClassic(run, std::move(participants),
               /*fallback=*/config().commit_path !=
                   proto::CommitPath::kClassic);
}

void OccEngine::SendPrepare(int32_t shard, TxnRun& run) {
  SendValidate(shard, run, /*multi=*/true);
}

void OccEngine::SendValidate(int32_t shard, TxnRun& run, bool multi) {
  std::vector<proto::OpRecord> slice;
  uint64_t writes = 0;
  for (const proto::OpRecord& record : run.records) {
    if (ShardOf(record.item) != shard) continue;
    slice.push_back(record);
    writes += record.mode == LockMode::kExclusive ? 1 : 0;
  }
  // The validate ships the shard's read versions (control) plus the write
  // values, so the later decision message can stay control-only.
  const uint64_t payload = net::kControlPayload + net::kDataPayload * writes;
  network().Send(
      run.site(), ServerSiteOf(shard), "validate",
      [this, shard, txn = run.id, site = run.site(),
       slice = std::move(slice), multi] {
        OnValidate(shard, txn, site, std::move(slice), multi);
      },
      payload);
}

void OccEngine::OnValidate(int32_t shard, TxnId txn, SiteId client_site,
                           std::vector<proto::OpRecord> records, bool multi) {
  TxnRun* run = FindRun(txn);
  if (multi) {
    proto::EmitPrepare(txn, shard, ServerSiteOf(shard), "", tracer());
    if (run != nullptr) PrepareLanded(*run);
  }
  const bool alive = run != nullptr && !run->finished && !run->doomed;
  const bool ok = alive && ValidateOnShard(shard, records);
  if (!multi) {
    if (!ok) {
      if (alive) ServerAbortDecision(txn, ServerSiteOf(shard));
      return;
    }
    // Validate + install are atomic at the server: the validation instant
    // is the serialization point, then the commit-ok closes the round.
    InstallOnShard(shard, client_site, records);
    network().Send(ServerSiteOf(shard), client_site, "commit-ok",
                   [this, txn] {
                     TxnRun* target = FindRun(txn);
                     if (target == nullptr || target->finished ||
                         target->doomed) {
                       return;
                     }
                     CommitLocally(*target);
                   });
    return;
  }
  if (ok) {
    Reserve(shard, txn, records);
    prepared_[static_cast<size_t>(shard)][txn] = std::move(records);
  } else if (alive) {
    ServerAbortDecision(txn, ServerSiteOf(shard));
  }
  // client_site was captured at send time: the vote must be deliverable
  // even when the run is already gone (it is dropped at tally time).
  network().Send(ServerSiteOf(shard), client_site, "vote",
                 [this, txn, shard, ok] { OnVoteArrived(txn, shard, ok); });
}

// ---------------------------------------------------------------------------
// Validation helpers
// ---------------------------------------------------------------------------

bool OccEngine::ValidateOnShard(
    int32_t shard, const std::vector<proto::OpRecord>& records) {
  const auto& slots = reserved_[static_cast<size_t>(shard)];
  for (const proto::OpRecord& record : records) {
    // Backward validation: the read version must still be the committed one.
    if (store().VersionOf(record.item) != record.version_read) {
      return false;
    }
    // And no concurrently prepared transaction may hold a conflicting
    // reservation (its install is already promised).
    auto it = slots.find(record.item);
    if (it == slots.end()) continue;
    const Slot& slot = it->second;
    if (slot.writer != kInvalidTxn) return false;
    if (slot.readers > 0 && record.mode == LockMode::kExclusive) return false;
  }
  return true;
}

void OccEngine::Reserve(int32_t shard, TxnId txn,
                        const std::vector<proto::OpRecord>& records) {
  auto& slots = reserved_[static_cast<size_t>(shard)];
  for (const proto::OpRecord& record : records) {
    Slot& slot = slots[record.item];
    if (record.mode == LockMode::kExclusive) {
      GTPL_CHECK_EQ(slot.writer, kInvalidTxn);
      slot.writer = txn;
    } else {
      ++slot.readers;
    }
  }
}

void OccEngine::ClearReservations(
    int32_t shard, const std::vector<proto::OpRecord>& records) {
  auto& slots = reserved_[static_cast<size_t>(shard)];
  for (const proto::OpRecord& record : records) {
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

void OccEngine::InstallOnShard(int32_t shard, SiteId committer_site,
                               const std::vector<proto::OpRecord>& records) {
  for (const proto::OpRecord& record : records) {
    if (record.mode != LockMode::kExclusive) continue;
    store().Install(record.item, record.version_written);
    if (!cache_data_) continue;
    auto& copies = copy_sets_[static_cast<size_t>(record.item)];
    for (SiteId other : copies) {
      if (other == committer_site) continue;
      network().Send(ServerSiteOf(shard), other, "invalidate",
                     [this, other, item = record.item] {
                       caches_[static_cast<size_t>(other - 1)].erase(item);
                     });
    }
    copies.clear();
    if (committer_site != kInvalidSite) copies.insert(committer_site);
  }
}

// ---------------------------------------------------------------------------
// Client-side hooks
// ---------------------------------------------------------------------------

void OccEngine::DoCommit(TxnRun& run) {
  if (!cache_data_) return;
  auto& cache = caches_[static_cast<size_t>(run.client_index)];
  for (const proto::OpRecord& record : run.records) {
    if (record.mode == LockMode::kExclusive) {
      cache[record.item] = record.version_written;
    }
  }
}

void OccEngine::OnClientAborted(TxnRun& run) {
  if (cache_data_) {
    // Stale reads caused the failure; evict everything the txn touched, so
    // the retry fetches fresh copies. OCC aborts only at validation, after
    // every operation completed, so no operation is in flight.
    auto& cache = caches_[static_cast<size_t>(run.client_index)];
    for (const proto::OpRecord& record : run.records) cache.erase(record.item);
  }
  std::vector<int32_t> participants = proto::ShardsOf(config(), run);
  if (participants.size() <= 1) return;  // nothing was reserved
  // Shards that voted yes before the failing shard doomed the transaction
  // still hold reservations; release them. Idempotent: a shard that never
  // prepared this transaction ignores the message.
  for (int32_t shard : participants) {
    network().Send(run.site(), ServerSiteOf(shard), "occ-abort",
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

bool OccEngine::ShardVote(int32_t shard, TxnId txn, bool speculative) {
  (void)shard;
  (void)txn;
  (void)speculative;
  GTPL_CHECK(false) << "OCC votes in OnValidate; ShardVote is unreachable";
  return false;
}

void OccEngine::OnCommitDecision(int32_t shard, TxnId txn) {
  auto& shard_prepared = prepared_[static_cast<size_t>(shard)];
  auto it = shard_prepared.find(txn);
  GTPL_CHECK(it != shard_prepared.end()) << "decision for unprepared txn";
  const std::vector<proto::OpRecord> records = std::move(it->second);
  shard_prepared.erase(it);
  TxnRun* run = FindRun(txn);
  InstallOnShard(shard, run != nullptr ? run->site() : kInvalidSite, records);
  ClearReservations(shard, records);
}

}  // namespace gtpl::cc
