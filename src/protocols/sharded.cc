#include "protocols/sharded.h"

#include <utility>

#include "common/check.h"
#include "protocols/invariants.h"

namespace gtpl::proto {

// ---------------------------------------------------------------------------
// ShardedG2plEngine
// ---------------------------------------------------------------------------

ShardedG2plEngine::ShardedG2plEngine(const SimConfig& config)
    : EngineBase(config) {
  coordinator_ = std::make_unique<core::ShardCoordinator>();
  wms_.reserve(static_cast<size_t>(config.num_servers));
  for (int32_t shard = 0; shard < config.num_servers; ++shard) {
    core::WindowManager::Callbacks callbacks;
    callbacks.dispatch = [this, shard](
                             ItemId item, Version version,
                             std::shared_ptr<const core::ForwardList> fl) {
      WmDispatch(shard, item, version, std::move(fl));
    };
    callbacks.abort = [this, shard](TxnId txn, SiteId client_site) {
      WmAbort(shard, txn, client_site);
    };
    callbacks.expand = [this, shard](
                           ItemId item, Version version,
                           std::shared_ptr<const core::ForwardList> fl,
                           TxnId txn, SiteId client_site,
                           int32_t member_index) {
      WmExpand(shard, item, version, std::move(fl), txn, client_site,
               member_index);
    };
    callbacks.can_abort = [this](TxnId txn) {
      TxnRun* run = FindRun(txn);
      return run != nullptr && !run->finished && !run->doomed;
    };
    wms_.push_back(std::make_unique<core::WindowManager>(
        config.workload.num_items, config.g2pl, &store(),
        std::move(callbacks), coordinator_.get()));
  }
}

ShardedG2plEngine::TxnState& ShardedG2plEngine::EnsureTxn(
    TxnId txn, int32_t client_index) {
  auto [it, inserted] = txns_.try_emplace(txn);
  if (inserted) {
    GTPL_CHECK(drained_.count(txn) == 0)
        << "g-2PL state re-created for drained txn " << txn;
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
                   wms_[static_cast<size_t>(shard)]->OnRequest(
                       txn, site, op.item, op.mode, restarts);
                 });
}

void ShardedG2plEngine::WmDispatch(
    int32_t shard, ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWindowDispatch;
    event.item = item;
    event.shard = shard;
    event.payload = static_cast<int64_t>(version);
    event.entries = SnapshotForwardList(*fl);
    tracer().Emit(std::move(event));
    obs::TraceEvent audit;
    audit.kind = obs::EventKind::kGraphCheck;
    audit.item = item;
    audit.shard = shard;
    audit.flag = coordinator_->graph().IsAcyclic();
    tracer().Emit(std::move(audit));
  }
  for (int32_t e = 0; e < fl->num_entries(); ++e) {
    for (const core::FlMember& m : fl->entry(e).members) {
      TxnState& ts = EnsureTxn(m.txn, m.client - 1);
      ++ts.slots_outstanding;
      ts.slot_items.push_back(item);
    }
  }
  DeliverToEntry(ServerSiteOf(shard), item, version, std::move(fl), 0);
}

void ShardedG2plEngine::WmAbort(int32_t shard, TxnId txn,
                                SiteId client_site) {
  ServerAbortDecision(txn, client_site, ServerSiteOf(shard));
}

void ShardedG2plEngine::WmExpand(int32_t shard, ItemId item, Version version,
                                 std::shared_ptr<const core::ForwardList> fl,
                                 TxnId txn, SiteId client_site,
                                 int32_t member_index) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWindowExpand;
    event.txn = txn;
    event.item = item;
    event.shard = shard;
    event.payload = static_cast<int64_t>(version);
    event.entries = SnapshotForwardList(*fl);
    tracer().Emit(std::move(event));
    obs::TraceEvent audit;
    audit.kind = obs::EventKind::kGraphCheck;
    audit.item = item;
    audit.shard = shard;
    audit.flag = coordinator_->graph().IsAcyclic();
    tracer().Emit(std::move(audit));
  }
  TxnState& ts = EnsureTxn(txn, client_site - 1);
  ++ts.slots_outstanding;
  ts.slot_items.push_back(item);
  network().Send(ServerSiteOf(shard), client_site, "data(expand)",
                 [this, txn, item, version, fl = std::move(fl),
                  member_index] {
                   OnData(txn, item, version, fl, 0, member_index, 0);
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
          OnData(txn, item, version, fl, entry_index, 0, 0);
        },
        payload);
    return;
  }
  for (int32_t j = 0; j < entry.size(); ++j) {
    const core::FlMember reader = entry.members[static_cast<size_t>(j)];
    network().Send(
        from_site, reader.client, "data(copy)",
        [this, txn = reader.txn, item, version, fl, entry_index, j] {
          OnData(txn, item, version, fl, entry_index, j, 0);
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
          OnData(txn, item, version, fl, entry_index + 1, 0, releases);
        },
        payload);
  }
}

void ShardedG2plEngine::OnData(TxnId txn, ItemId item, Version version,
                               std::shared_ptr<const core::ForwardList> fl,
                               int32_t entry_index, int32_t member_index,
                               int32_t early_releases) {
  if (drained_.count(txn) > 0) return;
  Obligation& ob = obligations_[ObKey{txn, item}];
  if (ob.data_arrived) {
    if (early_releases > 0) ob.releases_needed = early_releases;
  } else {
    ob.fl = std::move(fl);
    ob.entry = entry_index;
    ob.member = member_index;
    ob.is_writer = !ob.fl->entry(entry_index).is_read_group;
    ob.data_arrived = true;
    ob.version = version;
    if (early_releases > 0) ob.releases_needed = early_releases;
  }
  TxnState& ts = txns_.at(txn);
  if (ts.finished) {
    TryForward(txn, item);
    return;
  }
  MaybeGrant(txn, item, ob);
}

void ShardedG2plEngine::OnReaderRelease(
    TxnId writer_txn, ItemId item, Version version,
    std::shared_ptr<const core::ForwardList> fl, int32_t writer_entry_index) {
  if (drained_.count(writer_txn) > 0) return;
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kReaderRelease;
    event.txn = writer_txn;
    event.item = item;
    event.shard = ShardOf(item);
    tracer().Emit(std::move(event));
  }
  Obligation& ob = obligations_[ObKey{writer_txn, item}];
  if (ob.fl == nullptr) {
    ob.fl = std::move(fl);
    ob.entry = writer_entry_index;
    ob.member = 0;
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
  TxnState& ts = txns_.at(writer_txn);
  if (ts.finished) {
    TryForward(writer_txn, item);
  } else {
    MaybeGrant(writer_txn, item, ob);
  }
}

void ShardedG2plEngine::MaybeGrant(TxnId txn, ItemId item, Obligation& ob) {
  if (ob.granted || !ob.data_arrived) return;
  if (!config().g2pl.mr1w && ob.releases_received < ob.releases_needed) {
    return;
  }
  TxnRun* run = FindRun(txn);
  GTPL_CHECK(run != nullptr) << "live g-2PL txn without a run";
  if (run->doomed) return;
  GTPL_CHECK_EQ(run->op().item, item)
      << "grant does not match the sequentially outstanding operation";
  ob.granted = true;
  OpGranted(*run, ob.version);
}

void ShardedG2plEngine::TryForward(TxnId txn, ItemId item) {
  if (drained_.count(txn) > 0) return;
  auto it = obligations_.find(ObKey{txn, item});
  if (it == obligations_.end()) return;
  Obligation& ob = it->second;
  TxnState& ts = txns_.at(txn);
  if (ob.forwarded || !ob.data_arrived || !ts.finished) return;
  if (ts.committed && ob.releases_received < ob.releases_needed) return;
  ob.forwarded = true;
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
          wms_[static_cast<size_t>(shard)]->OnReturn(item, version_out);
          MaybeGcClientLogs();
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
  --ts.slots_outstanding;
  GTPL_CHECK_GE(ts.slots_outstanding, 0);
  CheckDrain(txn);
}

void ShardedG2plEngine::CheckDrain(TxnId txn) {
  if (drained_.count(txn) > 0) return;
  const TxnState& ts = txns_.at(txn);
  if (!ts.finished || ts.slots_outstanding != 0) return;
  drained_.insert(txn);
  // OnTxnDrained delegates to the shared coordinator, which retires the
  // transaction across every shard; any manager routes there.
  wms_[0]->OnTxnDrained(txn);
  for (ItemId item : ts.slot_items) obligations_.erase(ObKey{txn, item});
  // Retire the state too, so memory tracks in-flight transactions rather
  // than run length; drained_ keeps the id for the late-message checks.
  txns_.erase(txn);
}

void ShardedG2plEngine::DoCommit(TxnRun& run) {
  TxnState& ts = EnsureTxn(run.id, run.client_index);
  ts.finished = true;
  ts.committed = true;
  const std::vector<ItemId> items = ts.slot_items;  // TryForward may drain
  for (ItemId item : items) TryForward(run.id, item);
  CheckDrain(run.id);
}

void ShardedG2plEngine::OnClientAborted(TxnRun& run) {
  TxnState& ts = EnsureTxn(run.id, run.client_index);
  ts.finished = true;
  ts.committed = false;
  const std::vector<ItemId> items = ts.slot_items;
  for (ItemId item : items) TryForward(run.id, item);
  CheckDrain(run.id);
}

bool ShardedG2plEngine::ShardVote(int32_t shard, TxnId txn,
                                  bool speculative) {
  (void)shard;  // deadlock avoidance is global; every shard sees the same
  (void)speculative;  // the vote takes no commit-promise action either way
  return !coordinator_->IsAborted(txn);
}

void ShardedG2plEngine::OnCommitDecision(int32_t shard, TxnId txn) {
  // Nothing further server-side: in g-2PL the committed data itself
  // migrates along the forward lists; the servers learn outcomes from the
  // return messages. The base class already logged the decision.
  (void)shard;
  (void)txn;
}

void ShardedG2plEngine::FillProtocolMetrics(RunResult* result) {
  int64_t requests = 0;
  int64_t cap_samples = 0;
  double cap_sample_sum = 0.0;
  int64_t touched_items = 0;
  double final_cap_sum = 0.0;
  for (const auto& wm : wms_) {
    result->windows_dispatched += wm->windows_dispatched();
    result->read_group_expansions += wm->expansions();
    requests += wm->total_dispatched_requests();
    if (const core::AdaptiveWindowController* ctl =
            wm->adaptive_controller()) {
      cap_samples += ctl->windows_sampled();
      cap_sample_sum += ctl->cap_sample_sum();
      touched_items += ctl->TouchedItems();
      final_cap_sum += ctl->FinalCapSum();
      result->cap_increases += ctl->cap_increases();
      result->cap_decreases += ctl->cap_decreases();
    }
  }
  result->mean_forward_list_length =
      result->windows_dispatched > 0
          ? static_cast<double>(requests) /
                static_cast<double>(result->windows_dispatched)
          : 0.0;
  result->mean_effective_cap =
      cap_samples > 0 ? cap_sample_sum / static_cast<double>(cap_samples)
                      : 0.0;
  result->final_effective_cap =
      touched_items > 0
          ? final_cap_sum / static_cast<double>(touched_items)
          : 0.0;
}

}  // namespace gtpl::proto
