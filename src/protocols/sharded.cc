#include "protocols/sharded.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "protocols/invariants.h"

namespace gtpl::proto {

// ---------------------------------------------------------------------------
// ShardedG2plEngine
// ---------------------------------------------------------------------------

ShardedG2plEngine::ShardedG2plEngine(const SimConfig& config)
    : EngineBase(config) {
  core::WindowManager::Callbacks callbacks;
  callbacks.dispatch = [this](ItemId item, Version version,
                              std::shared_ptr<const core::ForwardList> fl) {
    WmDispatch(item, version, std::move(fl));
  };
  // Every abort decision is made inside an OnRequest or OnReturn call, so
  // the notice leaves from the site of the shard that call serves.
  callbacks.abort = [this](TxnId txn, SiteId /*client_site*/) {
    ServerAbortDecision(txn, ServerSiteOf(current_shard_));
  };
  callbacks.expand = [this](ItemId item, Version version,
                            std::shared_ptr<const core::ForwardList> fl,
                            TxnId txn, SiteId client_site) {
    WmExpand(item, version, std::move(fl), txn, client_site);
  };
  callbacks.can_abort = [this](TxnId txn) {
    TxnRun* run = FindRun(txn);
    return run != nullptr && !run->finished && !run->doomed;
  };
  wm_ = std::make_unique<core::WindowManager>(
      config.workload.num_items, config.g2pl, &store(), std::move(callbacks));
}

ShardedG2plEngine::Obligation& ShardedG2plEngine::SlotOn(TxnState& ts,
                                                         ItemId item) {
  auto it = std::find_if(ts.slots.begin(), ts.slots.end(),
                         [item](const Obligation& ob) {
                           return ob.item == item;
                         });
  GTPL_CHECK(it != ts.slots.end()) << "no forward-list slot on item " << item;
  return *it;
}

ShardedG2plEngine::TxnState& ShardedG2plEngine::EnsureTxn(
    TxnId txn, int32_t client_index) {
  auto [it, inserted] = txns_.try_emplace(txn);
  if (inserted) {
    GTPL_CHECK(!Dead(txn)) << "g-2PL state created for dead txn " << txn;
    it->second.client_index = client_index;
  }
  return it->second;
}

void ShardedG2plEngine::SendRequest(TxnRun& run) {
  const TxnId txn = run.id;
  const SiteId site = run.site();
  const workload::Operation op = run.op();
  const int32_t restarts = ClientAt(run.client_index).restart_streak;
  EnsureTxn(txn, run.client_index);
  const int32_t shard = ShardOf(op.item);
  network().Send(site, ServerSiteOf(shard), "lock-request",
                 [this, shard, txn, site, op, restarts] {
                   NoteRequestAtServer(txn, op.item, op.mode, shard);
                   if (Dead(txn)) return;  // stale request of a victim
                   current_shard_ = shard;
                   wm_->OnRequest(txn, site, op.item, op.mode, restarts);
                 });
}

void ShardedG2plEngine::EmitWindow(obs::EventKind kind, TxnId txn,
                                   ItemId item, Version version,
                                   const core::ForwardList& fl) {
  if (!tracer().enabled()) return;
  const int32_t shard = ShardOf(item);
  obs::TraceEvent event;
  event.kind = kind;
  event.txn = txn;
  event.item = item;
  event.shard = shard;
  event.payload = static_cast<int64_t>(version);
  event.entries = SnapshotForwardList(fl);
  tracer().Emit(std::move(event));
  obs::TraceEvent audit;
  audit.kind = obs::EventKind::kGraphCheck;
  audit.item = item;
  audit.shard = shard;
  audit.flag = wm_->graph().IsAcyclic();
  tracer().Emit(std::move(audit));
}

void ShardedG2plEngine::WmDispatch(
    ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl) {
  EmitWindow(obs::EventKind::kWindowDispatch, kInvalidTxn, item, version,
             *fl);
  for (int32_t e = 0; e < fl->num_entries(); ++e) {
    for (const core::FlMember& m : fl->entry(e).members) {
      EnsureTxn(m.txn, m.client - 1).slots.emplace_back().item = item;
    }
  }
  DeliverToEntry(ServerSiteOf(ShardOf(item)), item, version, std::move(fl),
                 0);
}

void ShardedG2plEngine::WmExpand(ItemId item, Version version,
                                 std::shared_ptr<const core::ForwardList> fl,
                                 TxnId txn, SiteId client_site) {
  EmitWindow(obs::EventKind::kWindowExpand, txn, item, version, *fl);
  EnsureTxn(txn, client_site - 1).slots.emplace_back().item = item;
  network().Send(ServerSiteOf(ShardOf(item)), client_site, "data(expand)",
                 [this, txn, item, version, fl = std::move(fl)] {
                   OnData(txn, item, version, fl, 0, 0);
                 });
}

void ShardedG2plEngine::DeliverToEntry(
    SiteId from_site, ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl, int32_t entry_index) {
  const uint64_t payload =
      net::kDataPayload +
      net::kFlSlotPayload * static_cast<uint64_t>(fl->num_members());
  const core::FlEntry& entry = fl->entry(entry_index);
  if (!entry.is_read_group) {
    const core::FlMember writer = entry.members[0];
    network().Send(
        from_site, writer.client, "data",
        [this, txn = writer.txn, item, version, fl, entry_index] {
          OnData(txn, item, version, fl, entry_index, 0);
        },
        payload);
    return;
  }
  for (const core::FlMember& reader : entry.members) {
    network().Send(
        from_site, reader.client, "data(copy)",
        [this, txn = reader.txn, item, version, fl, entry_index] {
          OnData(txn, item, version, fl, entry_index, 0);
        },
        payload);
  }
  if (config().g2pl.mr1w && entry_index + 1 < fl->num_entries()) {
    const core::FlEntry& next = fl->entry(entry_index + 1);
    GTPL_CHECK(!next.is_read_group);
    const core::FlMember writer = next.members[0];
    network().Send(
        from_site, writer.client, "data(early)",
        [this, txn = writer.txn, item, version, fl, entry_index,
         releases = entry.size()] {
          OnData(txn, item, version, fl, entry_index + 1, releases);
        },
        payload);
  }
}

void ShardedG2plEngine::OnData(TxnId txn, ItemId item, Version version,
                               std::shared_ptr<const core::ForwardList> fl,
                               int32_t entry_index, int32_t early_releases) {
  auto state = txns_.find(txn);
  if (state == txns_.end()) return;  // drained
  TxnState& ts = state->second;
  Obligation& ob = SlotOn(ts, item);
  if (ob.data_arrived) {
    if (early_releases > 0) ob.releases_needed = early_releases;
  } else {
    ob.fl = std::move(fl);
    ob.entry = entry_index;
    ob.is_writer = !ob.fl->entry(entry_index).is_read_group;
    ob.data_arrived = true;
    ob.version = version;
    if (early_releases > 0) ob.releases_needed = early_releases;
  }
  if (ts.finished) {
    TryForward(txn, ts, ob);
    CheckDrain(txn);
    return;
  }
  MaybeGrant(txn, ob);
}

void ShardedG2plEngine::OnReaderRelease(
    TxnId writer_txn, ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl, int32_t writer_entry_index) {
  auto state = txns_.find(writer_txn);
  if (state == txns_.end()) return;  // drained
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kReaderRelease;
    event.txn = writer_txn;
    event.item = item;
    event.shard = ShardOf(item);
    tracer().Emit(std::move(event));
  }
  TxnState& ts = state->second;
  Obligation& ob = SlotOn(ts, item);
  if (ob.fl == nullptr) {
    ob.fl = std::move(fl);
    ob.entry = writer_entry_index;
    ob.is_writer = true;
    GTPL_CHECK_GT(writer_entry_index, 0);
    ob.releases_needed = ob.fl->entry(writer_entry_index - 1).size();
  }
  ++ob.releases_received;
  GTPL_CHECK_LE(ob.releases_received, ob.releases_needed);
  if (!ob.data_arrived) {
    ob.data_arrived = true;
    ob.version = version;
  }
  if (ob.forwarded) return;
  if (ts.finished) {
    TryForward(writer_txn, ts, ob);
    CheckDrain(writer_txn);
  } else {
    MaybeGrant(writer_txn, ob);
  }
}

void ShardedG2plEngine::MaybeGrant(TxnId txn, Obligation& ob) {
  if (ob.granted || !ob.data_arrived) return;
  if (!config().g2pl.mr1w && ob.releases_received < ob.releases_needed) {
    return;
  }
  TxnRun* run = FindRun(txn);
  GTPL_CHECK(run != nullptr) << "live g-2PL txn without a run";
  if (run->doomed) return;
  GTPL_CHECK_EQ(run->op().item, ob.item)
      << "grant does not match the sequentially outstanding operation";
  ob.granted = true;
  OpGranted(*run, ob.version);
}

void ShardedG2plEngine::TryForward(TxnId txn, TxnState& ts, Obligation& ob) {
  if (ob.forwarded || !ob.data_arrived || !ts.finished) return;
  if (ts.committed && ob.releases_received < ob.releases_needed) return;
  ob.forwarded = true;
  const ItemId item = ob.item;
  if (ts.committed && ob.is_writer && tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWriterRelease;
    event.txn = txn;
    event.item = item;
    event.shard = ShardOf(item);
    tracer().Emit(std::move(event));
  }
  const Version version_out =
      ts.committed && ob.is_writer ? ob.version + 1 : ob.version;
  const SiteId from = ts.client_index + 1;
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kFlHandoff;
    event.txn = txn;
    event.site = from;
    event.item = item;
    event.shard = ShardOf(item);
    event.flag = ts.committed;
    event.mode = ob.is_writer ? 1 : 0;
    event.payload = static_cast<int64_t>(version_out);
    event.label = ob.fl->IsLastEntry(ob.entry)
                      ? "return"
                      : (!ob.is_writer ? "reader-release" : "forward");
    tracer().Emit(std::move(event));
  }
  if (ob.fl->IsLastEntry(ob.entry)) {
    const int32_t shard = ShardOf(item);
    network().Send(
        from, ServerSiteOf(shard), "return",
        [this, shard, item, version_out] {
          current_shard_ = shard;
          wm_->OnReturn(item, version_out);
        },
        net::kControlPayload + net::kDataPayload);
  } else if (!ob.is_writer) {
    const core::FlEntry& next = ob.fl->entry(ob.entry + 1);
    GTPL_CHECK(!next.is_read_group);
    const core::FlMember writer = next.members[0];
    const uint64_t release_payload =
        config().g2pl.mr1w ? net::kControlPayload
                           : net::kControlPayload + net::kDataPayload;
    network().Send(
        from, writer.client, "reader-release",
        [this, wt = writer.txn, item, version_out, fl = ob.fl,
         we = ob.entry + 1] {
          OnReaderRelease(wt, item, version_out, fl, we);
        },
        release_payload);
  } else {
    DeliverToEntry(from, item, version_out, ob.fl, ob.entry + 1);
  }
}

void ShardedG2plEngine::CheckDrain(TxnId txn) {
  auto state = txns_.find(txn);
  if (state == txns_.end()) return;  // drained
  const TxnState& ts = state->second;
  if (!ts.finished) return;
  if (std::any_of(ts.slots.begin(), ts.slots.end(),
                  [](const Obligation& ob) { return !ob.forwarded; })) {
    return;
  }
  wm_->OnTxnDrained(txn);
  // Retire the state too, so memory tracks in-flight transactions rather
  // than run length; a missing entry is what later messages read as
  // "drained".
  txns_.erase(state);
}

void ShardedG2plEngine::Finish(TxnRun& run, bool committed) {
  TxnState& ts = EnsureTxn(run.id, run.client_index);
  ts.finished = true;
  ts.committed = committed;
  for (Obligation& ob : ts.slots) TryForward(run.id, ts, ob);
  CheckDrain(run.id);
}

void ShardedG2plEngine::DoCommit(TxnRun& run) { Finish(run, true); }

void ShardedG2plEngine::OnClientAborted(TxnRun& run) { Finish(run, false); }

void ShardedG2plEngine::FillProtocolMetrics(RunResult* result) {
  result->windows_dispatched = wm_->windows_dispatched();
  result->read_group_expansions = wm_->expansions();
  result->mean_forward_list_length = wm_->MeanForwardListLength();
  if (const core::AdaptiveWindowController* ctl = wm_->adaptive_controller()) {
    result->cap_increases = ctl->cap_increases();
    result->cap_decreases = ctl->cap_decreases();
    result->mean_effective_cap = ctl->MeanEffectiveCap();
    result->final_effective_cap = ctl->FinalEffectiveCap();
  }
}

}  // namespace gtpl::proto
