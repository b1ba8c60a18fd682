#include "core/window_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace gtpl::core {

WindowManager::WindowManager(int32_t num_items, const G2plOptions& options,
                             db::DataStore* store, Callbacks callbacks)
    : options_(options),
      store_(store),
      callbacks_(std::move(callbacks)),
      items_(static_cast<size_t>(num_items)),
      adaptive_(options.adaptive_window
                    ? std::make_unique<AdaptiveWindowController>(num_items)
                    : nullptr) {
  GTPL_CHECK_GT(num_items, 0);
  GTPL_CHECK(store_ != nullptr);
  GTPL_CHECK_GE(options_.max_forward_list_length, 0);
  GTPL_CHECK(callbacks_.dispatch != nullptr);
  GTPL_CHECK(callbacks_.abort != nullptr);
}

WindowManager::ItemState& WindowManager::StateOf(ItemId item) {
  GTPL_CHECK_GE(item, 0);
  GTPL_CHECK_LT(static_cast<size_t>(item), items_.size());
  return items_[static_cast<size_t>(item)];
}

void WindowManager::OnRequest(TxnId txn, SiteId client, ItemId item,
                              LockMode mode, int32_t restart_count) {
  txn_client_[txn] = client;
  ItemState& state = StateOf(item);

  if (state.at_server) {
    // No collection window in progress: grant immediately with a singleton
    // forward list ("initially at start-up time and during periods of
    // extremely light loading, the forward-list will contain a single
    // client"). The grant is still ordered after every undrained past
    // accessor of the item; a required edge that would close a cycle means
    // the orders are already inconsistent and someone must abort.
    GTPL_CHECK(state.pending.empty());
    PendingRequest request{txn, client, mode, restart_count};
    std::vector<TxnId> reached =
        graph_.ReachableAmong(txn, state.undrained_members);
    if (!reached.empty()) {
      if (!ResolveCycle(item, request, std::move(reached))) {
        return;  // requester aborted
      }
    }
    graph_.PromoteRequestEdgesInto(txn);  // stale waits become order facts
    AddAccessorOrderEdges(item, txn);
    ForwardListBuilder builder;
    builder.Add(txn, client, mode);
    state.fl = builder.Build();
    state.at_server = false;
    state.undrained_members.insert(txn);
    member_of_[txn].push_back(item);
    state.returns_expected = 1;
    state.returns_received = 0;
    state.return_version = -1;
    NextWindowCap(item);  // a singleton window settles the item's interval
    ++windows_dispatched_;
    ++total_dispatched_requests_;
    callbacks_.dispatch(item, store_->VersionOf(item), state.fl);
    return;
  }

  // Read-group expansion (extension, off by default): a shared request may
  // join a dispatched pure-read window instead of waiting for it to close,
  // unless a write is queued for the item. The expanded reader is
  // unordered w.r.t. the group it joins but ordered after older undrained
  // accessors, which must not already follow it.
  const bool pure_read_window =
      state.fl != nullptr && state.fl->num_entries() == 1 &&
      state.fl->entry(0).is_read_group;
  const auto is_write = [](const PendingRequest& r) {
    return r.mode == LockMode::kExclusive;
  };
  const int32_t expansion_cap = ExpansionCap(item);
  if (options_.expand_read_groups && mode == LockMode::kShared &&
      pure_read_window &&
      std::none_of(state.pending.begin(), state.pending.end(), is_write) &&
      (expansion_cap == 0 || state.fl->num_members() < expansion_cap) &&
      !ReachesOlderAccessor(item, txn)) {
    graph_.PromoteRequestEdgesInto(txn);
    AddAccessorOrderEdges(item, txn, /*skip_current_window=*/true);
    std::vector<FlEntry> entries{state.fl->entry(0)};
    entries[0].members.push_back(FlMember{txn, client});
    state.fl = std::make_shared<const ForwardList>(std::move(entries));
    state.undrained_members.insert(txn);
    member_of_[txn].push_back(item);
    ++state.returns_expected;
    ++expansions_;
    GTPL_CHECK(callbacks_.expand != nullptr);
    callbacks_.expand(item, store_->VersionOf(item), state.fl, txn, client);
    return;
  }

  // Collection window: the requester will be ordered after every member of
  // the current (dispatched) window. Required edges member -> txn close a
  // cycle iff txn already reaches a member.
  PendingRequest request{txn, client, mode, restart_count};
  std::vector<TxnId> reached =
      graph_.ReachableAmong(txn, state.undrained_members);
  if (!reached.empty()) {
    if (!ResolveCycle(item, request, std::move(reached))) {
      return;  // requester aborted
    }
  }
  for (TxnId member : state.undrained_members) {
    graph_.AddEdge(member, txn, kRequestEdge);
  }
  state.pending.push_back(request);
  outstanding_request_[txn] = item;
}

bool WindowManager::ResolveCycle(ItemId item, const PendingRequest& request,
                                 std::vector<TxnId> reached_members) {
  ItemState& state = StateOf(item);
  if (request.restart_count > options_.aging_threshold) {
    // Aging: favor the oft-restarted requester by aborting the opposing
    // window members; their dissolvable wait edges may break the cycle.
    // Members that already finished (committed) cannot be victims.
    for (TxnId member : reached_members) {
      if (callbacks_.can_abort != nullptr && !callbacks_.can_abort(member)) {
        continue;
      }
      auto it = txn_client_.find(member);
      GTPL_CHECK(it != txn_client_.end());
      AbortTxn(member, it->second, item);
    }
    std::vector<TxnId> still_reached =
        graph_.ReachableAmong(request.txn, state.undrained_members);
    if (still_reached.empty()) return true;
    // Structural constraints persist; fall through to aborting the requester.
  }
  AbortTxn(request.txn, request.client, item);
  return false;
}

void WindowManager::AbortTxn(TxnId txn, SiteId client, ItemId decided_at) {
  if (adaptive_ != nullptr && decided_at != kInvalidItem) {
    adaptive_->OnAbortFeedback(decided_at);
  }
  // The purge below may erase the victim's pending entry at `decided_at` —
  // that is the same signal, not a second one; purges at other items still
  // count.
  const ItemId saved_suppressed = purge_feedback_suppressed_item_;
  purge_feedback_suppressed_item_ = decided_at;
  OnTxnAborted(txn);
  purge_feedback_suppressed_item_ = saved_suppressed;
  callbacks_.abort(txn, client);
}

int32_t WindowManager::NextWindowCap(ItemId item) {
  if (adaptive_ == nullptr) return options_.max_forward_list_length;
  return adaptive_->NextWindowCap(item);
}

int32_t WindowManager::ExpansionCap(ItemId item) const {
  if (adaptive_ == nullptr) return options_.max_forward_list_length;
  return adaptive_->CapFor(item);
}

void WindowManager::OnTxnAborted(TxnId txn) {
  // Purge the (single, sequential-execution) outstanding request, if any.
  if (auto it = outstanding_request_.find(txn);
      it != outstanding_request_.end()) {
    ItemState& state = StateOf(it->second);
    auto pos = std::find_if(
        state.pending.begin(), state.pending.end(),
        [txn](const PendingRequest& r) { return r.txn == txn; });
    if (pos != state.pending.end()) {
      state.pending.erase(pos);
      // A queued request evicted by an abort is contention pressure at this
      // item too — unless the deciding window already charged it here.
      if (adaptive_ != nullptr &&
          it->second != purge_feedback_suppressed_item_) {
        adaptive_->OnAbortFeedback(it->second);
      }
    }
    outstanding_request_.erase(it);
  }
  // Leave the waits that flow through the victim (contraction) and take it
  // out of the graph and the accessor sets so it can no longer cause (false)
  // deadlocks.
  graph_.RemoveRequestEdgesInto(txn);
  const std::vector<TxnId> targets = graph_.OutTargets(txn);
  graph_.Contract(txn);
  EraseMembership(txn);
  // Contracting the victim may have freed downstream ghosts.
  for (TxnId target : targets) {
    if (ghosts_.count(target) > 0 && !graph_.HasInEdges(target)) {
      RetireTxn(target);
    }
  }
}

void WindowManager::EraseMembership(TxnId txn) {
  if (auto it = member_of_.find(txn); it != member_of_.end()) {
    for (ItemId item : it->second) {
      StateOf(item).undrained_members.erase(txn);
    }
    member_of_.erase(it);
  }
}

void WindowManager::OnTxnDrained(TxnId txn) {
  // A drained transaction may still have to order *future* grantees of the
  // items it accessed: under MR1W a writer can commit and drain while the
  // readers that precede it are still running, so its grant-order cone is
  // not closed yet. The node is retired only once nothing points into it
  // (then no cycle can ever run through it); until then it lingers as a
  // ghost in the graph and in the accessor sets.
  if (graph_.HasInEdges(txn)) {
    ghosts_.insert(txn);
    return;
  }
  RetireTxn(txn);
}

void WindowManager::RetireTxn(TxnId txn) {
  std::vector<TxnId> worklist{txn};
  while (!worklist.empty()) {
    const TxnId current = worklist.back();
    worklist.pop_back();
    const std::vector<TxnId> targets = graph_.OutTargets(current);
    graph_.RemoveTxn(current);
    EraseMembership(current);
    txn_client_.erase(current);
    ghosts_.erase(current);
    // Retiring this node may free ghosts downstream.
    for (TxnId target : targets) {
      if (ghosts_.count(target) > 0 && !graph_.HasInEdges(target)) {
        worklist.push_back(target);
      }
    }
  }
}

void WindowManager::OnReturn(ItemId item, Version version) {
  ItemState& state = StateOf(item);
  GTPL_CHECK(!state.at_server) << "return for an item the server holds";
  GTPL_CHECK_LT(state.returns_received, state.returns_expected);
  if (state.return_version < 0) {
    state.return_version = version;
  } else {
    GTPL_CHECK_EQ(state.return_version, version)
        << "final read group returned inconsistent versions for item " << item;
  }
  ++state.returns_received;
  if (state.returns_received == state.returns_expected) {
    InstallAndRedispatch(item);
  }
}

void WindowManager::InstallAndRedispatch(ItemId item) {
  ItemState& state = StateOf(item);
  store_->Install(item, state.return_version);
  state.at_server = true;
  state.fl = nullptr;
  // Undrained members stay in the accessor set: the order "they accessed
  // the item before any future grantee" is a serialization fact that must
  // be enforceable until they are fully drained (§3.3 order consistency).
  state.returns_expected = 0;
  state.returns_received = 0;
  state.return_version = -1;
  if (!state.pending.empty()) DispatchWindow(item);
}

void WindowManager::DispatchWindow(ItemId item) {
  ItemState& state = StateOf(item);
  GTPL_CHECK(state.at_server);
  GTPL_CHECK(!state.pending.empty());
  // Take up to the cap, in arrival order. The cap is the static
  // max_forward_list_length, or the controller's current per-item value.
  const int32_t cap_limit = NextWindowCap(item);
  const size_t cap =
      cap_limit == 0
          ? state.pending.size()
          : std::min(state.pending.size(), static_cast<size_t>(cap_limit));
  std::vector<PendingRequest> batch(state.pending.begin(),
                                    state.pending.begin() +
                                        static_cast<long>(cap));
  state.pending.erase(state.pending.begin(),
                      state.pending.begin() + static_cast<long>(cap));

  // A batch member that already precedes an undrained past accessor of the
  // item cannot be granted after it without making the grant orders
  // inconsistent (a would-be precedence cycle): abort it.
  {
    std::vector<PendingRequest> kept;
    kept.reserve(batch.size());
    for (const PendingRequest& r : batch) {
      if (!graph_.ReachableAmong(r.txn, state.undrained_members).empty()) {
        AbortTxn(r.txn, r.client, item);
        ++aborts_at_dispatch_batch_;
      } else {
        kept.push_back(r);
      }
    }
    batch = std::move(kept);
    if (batch.empty()) {
      if (!state.pending.empty()) DispatchWindow(item);
      return;
    }
  }

  // Pre-order by policy, then fix a precedence-consistent total order.
  batch = ApplyPolicy(options_.ordering, std::move(batch));
  std::vector<TxnId> txns;
  txns.reserve(batch.size());
  std::unordered_map<TxnId, const PendingRequest*> by_txn;
  for (const PendingRequest& r : batch) {
    txns.push_back(r.txn);
    by_txn[r.txn] = &r;
  }
  const std::vector<TxnId> order = graph_.ConsistentOrder(txns);

  // The batch members' waits end here. Every request edge into them —
  // including edges bridged through drained or aborted transactions —
  // becomes a permanent grant-order fact; accessor edges below cover
  // orderings that never materialized as waits.
  for (TxnId txn : order) {
    graph_.PromoteRequestEdgesInto(txn);
    outstanding_request_.erase(txn);
  }
  for (TxnId txn : order) AddAccessorOrderEdges(item, txn);

  ForwardListBuilder builder;
  for (TxnId txn : order) {
    const PendingRequest& r = *by_txn.at(txn);
    builder.Add(r.txn, r.client, r.mode);
  }
  std::shared_ptr<const ForwardList> fl = builder.Build();

  // Chain edges between consecutive entries (structural: forward-list order).
  for (int32_t e = 0; e + 1 < fl->num_entries(); ++e) {
    for (const FlMember& a : fl->entry(e).members) {
      for (const FlMember& b : fl->entry(e + 1).members) {
        graph_.AddEdge(a.txn, b.txn, kStructuralEdge);
      }
    }
  }

  // Remaining pending requests now wait behind this window; encode the wait
  // from the final entry (paths from earlier entries follow the chain).
  // A pending request that already precedes a batch member is deadlocked.
  if (!state.pending.empty()) {
    std::unordered_set<TxnId> batch_set(order.begin(), order.end());
    const FlEntry& last = fl->entry(fl->num_entries() - 1);
    std::vector<PendingRequest> doomed;
    for (const PendingRequest& p : state.pending) {
      if (!graph_.ReachableAmong(p.txn, batch_set).empty()) {
        doomed.push_back(p);
        continue;
      }
      for (const FlMember& m : last.members) {
        graph_.AddEdge(m.txn, p.txn, kRequestEdge);
      }
    }
    for (const PendingRequest& p : doomed) {
      AbortTxn(p.txn, p.client, item);  // also purges it from state.pending
      ++aborts_at_dispatch_pending_;
    }
  }

  // Window bookkeeping and dispatch. The accessor set accumulates: members
  // of earlier windows stay until drained.
  state.fl = fl;
  state.at_server = false;
  for (TxnId txn : order) {
    state.undrained_members.insert(txn);
    member_of_[txn].push_back(item);
  }
  const FlEntry& final_entry = fl->entry(fl->num_entries() - 1);
  state.returns_expected = final_entry.size();
  state.returns_received = 0;
  state.return_version = -1;
  ++windows_dispatched_;
  total_dispatched_requests_ += static_cast<int64_t>(order.size());
  callbacks_.dispatch(item, store_->VersionOf(item), fl);
}

void WindowManager::AddAccessorOrderEdges(ItemId item, TxnId grantee,
                                          bool skip_current_window) {
  ItemState& state = StateOf(item);
  std::unordered_set<TxnId> current;
  if (skip_current_window && state.fl != nullptr) {
    for (TxnId member : state.fl->MemberTxns()) current.insert(member);
  }
  for (TxnId accessor : state.undrained_members) {
    if (accessor == grantee) continue;
    if (skip_current_window && current.count(accessor) > 0) continue;
    graph_.AddEdge(accessor, grantee, kStructuralEdge);
  }
}

bool WindowManager::ReachesOlderAccessor(ItemId item, TxnId txn) {
  ItemState& state = StateOf(item);
  std::unordered_set<TxnId> older;
  std::unordered_set<TxnId> current;
  if (state.fl != nullptr) {
    for (TxnId member : state.fl->MemberTxns()) current.insert(member);
  }
  for (TxnId accessor : state.undrained_members) {
    if (current.count(accessor) == 0) older.insert(accessor);
  }
  return !graph_.ReachableAmong(txn, older).empty();
}

double WindowManager::MeanForwardListLength() const {
  if (windows_dispatched_ == 0) return 0.0;
  return static_cast<double>(total_dispatched_requests_) /
         static_cast<double>(windows_dispatched_);
}

bool WindowManager::ItemAtServer(ItemId item) const {
  return items_[static_cast<size_t>(item)].at_server;
}

int32_t WindowManager::PendingCount(ItemId item) const {
  return static_cast<int32_t>(items_[static_cast<size_t>(item)].pending.size());
}

}  // namespace gtpl::core
