// Layer-probe phase of bench_perf: exact per-layer call counts from one
// traced run, and per-call self costs from re-issuing those calls against
// each layer's public functions under this file's own timers. Nothing under
// src/ is instrumented; the public functions called here are the `probes`
// list in bench/perf/README.md.

#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/forward_list.h"
#include "core/window_manager.h"
#include "db/data_store.h"
#include "db/lock_table.h"
#include "net/latency_model.h"
#include "net/network.h"
#include "obs/export.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "sim/simulator.h"
#include "summary.h"
#include "workload/generator.h"

namespace gtpl::perf {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PerCall(double seconds, int64_t calls) {
  return calls > 0 ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Only nowait runs lock through db::LockTable among the workloads; the
/// replay below follows its call pattern.
bool UsesLockTable(const Workload& workload) {
  return std::string(workload.engine) == "nowait";
}

// ---------------------------------------------------------------------------
// Captured calls

struct MsgCall {
  SiteId from = 0;
  SiteId to = 0;
  int32_t label = 0;  // index into Capture::labels
  uint64_t payload = 0;
};

struct LockCall {
  enum class Kind : uint8_t {
    kRequest,   // Request (+ Blockers when it waits, serial engine)
    kRelease,   // ReleaseAll on `shard`
    kAbortAll,  // ReleaseAll on every shard: serial victim cleanup
  };
  Kind kind = Kind::kRequest;
  int32_t shard = 0;
  TxnId txn = kInvalidTxn;
  ItemId item = kInvalidItem;
  LockMode mode = LockMode::kShared;
};

struct Capture {
  int64_t commits = 0;  // total_commits: the per-txn denominator
  int64_t begins = 0;
  int64_t aborts = 0;
  uint64_t events = 0;        // simulator events
  uint64_t channel_msgs = 0;  // messages on any transport
  int64_t lock_requests = 0;
  int64_t windows = 0;
  int64_t window_members = 0;
  uint64_t msg_payload = 0;
  uint64_t sync_windows = 0;
  uint64_t sync_stalls = 0;
  double lp_imbalance = 0.0;
  // Calls to replay: the run's own, or synthetic ones (AddIdleLayerCalls)
  // for a layer the run never called.
  bool net_busy = false;
  bool db_busy = false;
  std::vector<std::string> labels;
  std::vector<MsgCall> msgs;
  std::vector<LockCall> locks;
  std::vector<obs::TraceEvent> trace;
};

Capture Extract(const Workload& workload, proto::RunResult result) {
  Capture cap;
  cap.commits = result.total_commits;
  cap.events = result.events;
  cap.channel_msgs = result.network.messages;
  cap.sync_windows = result.sync_windows;
  cap.sync_stalls = result.sync_stalls;
  if (!result.shard_events.empty()) {
    uint64_t max = 0;
    uint64_t sum = 0;
    for (const uint64_t e : result.shard_events) {
      max = std::max(max, e);
      sum += e;
    }
    cap.lp_imbalance =
        Ratio(static_cast<double>(max) * result.shard_events.size(),
              static_cast<double>(sum));
  }
  const bool lock_table = UsesLockTable(workload);
  const bool parallel = workload.parallel;
  std::unordered_map<std::string, int32_t> label_ids;
  std::unordered_set<TxnId> server_aborted;
  for (const obs::TraceEvent& e : result.obs_trace) {
    switch (e.kind) {
      case obs::EventKind::kTxnBegin:
        ++cap.begins;
        break;
      case obs::EventKind::kMsgSend: {
        const auto [it, fresh] = label_ids.try_emplace(
            e.label, static_cast<int32_t>(cap.labels.size()));
        if (fresh) cap.labels.push_back(e.label);
        cap.msgs.push_back(MsgCall{e.site, e.peer, it->second,
                                   static_cast<uint64_t>(e.payload)});
        cap.msg_payload += static_cast<uint64_t>(e.payload);
        break;
      }
      case obs::EventKind::kLockRequest:
        ++cap.lock_requests;
        // The serial engine drops a victim's stale request before the table.
        if (lock_table && server_aborted.count(e.txn) == 0) {
          cap.locks.push_back(LockCall{LockCall::Kind::kRequest, e.shard,
                                       e.txn, e.item,
                                       static_cast<LockMode>(e.mode)});
        }
        break;
      case obs::EventKind::kTxnAbort:
        ++cap.aborts;
        if (!lock_table) break;
        if (parallel) {
          // parsim drops the victim's locks on the deciding shard only.
          const int32_t shard =
              e.peer == kServerSite ? 0 : e.peer - workload.num_clients;
          cap.locks.push_back(
              LockCall{LockCall::Kind::kRelease, shard, e.txn});
        } else {
          server_aborted.insert(e.txn);
          cap.locks.push_back(LockCall{LockCall::Kind::kAbortAll, 0, e.txn});
        }
        break;
      case obs::EventKind::kLockRelease:
        if (lock_table) {
          cap.locks.push_back(
              LockCall{LockCall::Kind::kRelease, e.shard, e.txn});
        }
        break;
      case obs::EventKind::kWindowDispatch:
        ++cap.windows;
        for (const obs::FlEntrySnapshot& entry : e.entries) {
          cap.window_members += static_cast<int64_t>(entry.txns.size());
        }
        break;
      default:
        break;
    }
  }
  cap.net_busy = !cap.msgs.empty();
  cap.db_busy = !cap.locks.empty();
  cap.trace = std::move(result.obs_trace);
  return cap;
}

// Calls for an idle layer, so its per-call cost is still measured on the
// workload's own shape. They never enter the *_per_txn counts.

std::vector<LockCall> SyntheticLocks(const Workload& workload,
                                     const workload::WorkloadProfile& profile,
                                     uint64_t seed, int64_t txns) {
  workload::WorkloadGenerator generator(profile, seed);
  std::vector<LockCall> calls;
  std::deque<std::pair<TxnId, std::set<int32_t>>> active;
  const auto release_oldest = [&calls, &active] {
    for (const int32_t shard : active.front().second) {
      calls.push_back(
          LockCall{LockCall::Kind::kRelease, shard, active.front().first});
    }
    active.pop_front();
  };
  for (TxnId txn = 1; txn <= txns; ++txn) {
    std::set<int32_t> shards;
    for (const workload::Operation& op : generator.NextTxn().ops) {
      const int32_t shard = op.item % workload.num_servers;
      shards.insert(shard);
      calls.push_back(
          LockCall{LockCall::Kind::kRequest, shard, txn, op.item, op.mode});
    }
    active.emplace_back(txn, std::move(shards));
    if (static_cast<int32_t>(active.size()) > workload.num_clients) {
      release_oldest();
    }
  }
  while (!active.empty()) release_oldest();
  return calls;
}

SiteId ShardSite(const Workload& workload, int32_t shard) {
  return shard == 0 ? kServerSite : workload.num_clients + shard;
}

std::vector<MsgCall> SyntheticMsgs(const Workload& workload, uint64_t count,
                                   std::vector<std::string>* labels) {
  *labels = {"lock-request", "grant+data"};
  std::vector<MsgCall> msgs;
  msgs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t pair = i / 2;  // a request and its grant
    const auto client = static_cast<SiteId>(pair % workload.num_clients) + 1;
    const SiteId server = ShardSite(
        workload, static_cast<int32_t>(pair % workload.num_servers));
    if (i % 2 == 0) {
      msgs.push_back(MsgCall{client, server, 0, net::kControlPayload});
    } else {
      msgs.push_back(MsgCall{server, client, 1,
                             net::kControlPayload + net::kDataPayload});
    }
  }
  return msgs;
}

void AddIdleLayerCalls(const Workload& workload,
                       const workload::WorkloadProfile& profile, uint64_t seed,
                       Capture* cap) {
  if (!cap->db_busy) {
    cap->locks = SyntheticLocks(workload, profile, seed, cap->begins);
  }
  if (!cap->net_busy) {
    // As many as the run sent on its own transport (parsim's channels).
    cap->msgs = SyntheticMsgs(workload, cap->channel_msgs, &cap->labels);
  }
}

/// Request and ReleaseAll calls a replay of `locks` must issue.
std::pair<int64_t, int64_t> ExpectedLockCalls(
    const std::vector<LockCall>& locks, int32_t shards) {
  int64_t requests = 0;
  int64_t releases = 0;
  for (const LockCall& c : locks) {
    if (c.kind == LockCall::Kind::kRequest) ++requests;
    if (c.kind == LockCall::Kind::kRelease) ++releases;
    if (c.kind == LockCall::Kind::kAbortAll) releases += shards;
  }
  return {requests, releases};
}

// ---------------------------------------------------------------------------
// Replays. Each returns the seconds its calls took and reports the number of
// calls it issued, for the count check against the capture.

/// sim: K = num_clients self-rescheduling callbacks through
/// Simulator::Schedule/Run. The 32-byte capture matches the engines'
/// closures and, like theirs, is past std::function's inline buffer.
class EventLoopReplay {
 public:
  EventLoopReplay(std::vector<SimTime> delays, uint64_t target)
      : delays_(std::move(delays)), target_(target) {}

  double Run(int32_t clients) {
    const Clock::time_point start = Clock::now();
    for (int64_t c = 0; c < clients && scheduled_ < target_; ++c) {
      Arm(c, 0, 0);
    }
    sim_.Run();
    return SecondsSince(start);
  }

  uint64_t executed() const { return sim_.events_executed(); }

 private:
  void Arm(int64_t client, int64_t a, int64_t b) {
    ++scheduled_;
    const SimTime delay = delays_[next_delay_++ % delays_.size()];
    sim_.Schedule(delay, [this, client, a, b] {
      checksum_ += client + a + b;
      if (scheduled_ < target_) Arm(client, a + 1, b);
    });
  }

  sim::Simulator sim_;
  std::vector<SimTime> delays_;
  uint64_t target_;
  uint64_t scheduled_ = 0;
  size_t next_delay_ = 0;
  int64_t checksum_ = 0;
};

/// Delays of the in-situ event mix: a message flight with the run's share
/// of message deliveries among events, a think time otherwise.
std::vector<SimTime> EventDelays(const Workload& workload,
                                 const workload::WorkloadProfile& profile,
                                 const Capture& cap, uint64_t seed) {
  const double msg_share = std::min(
      1.0, Ratio(static_cast<double>(cap.channel_msgs),
                 static_cast<double>(cap.events)));
  rng::Rng rng(seed);
  std::vector<SimTime> delays(4096);
  for (SimTime& delay : delays) {
    delay = rng.Bernoulli(msg_share)
                ? workload.latency
                : rng.UniformInt(profile.min_think, profile.max_think);
  }
  return delays;
}

/// net: every message through net::Network::Send, delivered through the
/// simulator with at most num_clients messages in flight (the closed loop's
/// bound), so the queue stays as small as in situ. With `through_network`
/// false the same deliveries are scheduled on the simulator directly: the
/// sim cost nested inside Send, which the net self time excludes.
double ReplayNet(const Workload& workload, const std::vector<MsgCall>& msgs,
                 const std::vector<std::string>& labels, bool through_network,
                 int64_t* delivered) {
  sim::Simulator sim;
  net::Network network(&sim,
                       std::make_unique<net::UniformLatency>(workload.latency));
  network.SetSiteLayout(workload.num_clients);
  const size_t in_flight = static_cast<size_t>(workload.num_clients);
  const Clock::time_point start = Clock::now();
  for (const MsgCall& m : msgs) {
    if (through_network) {
      network.Send(
          m.from, m.to, labels[static_cast<size_t>(m.label)],
          [delivered] { ++*delivered; }, m.payload);
    } else {
      sim.Schedule(workload.latency, [delivered, m] { ++*delivered; });
    }
    while (sim.pending_events() > in_flight) sim.Step();
  }
  sim.Run();
  return SecondsSince(start);
}

struct LockReplayCounts {
  int64_t requests = 0;
  int64_t waits = 0;
  int64_t blockers = 0;
  int64_t releases = 0;
  int64_t Calls() const { return requests + blockers + releases; }
};

/// db: the calls in trace order against one db::LockTable per shard.
/// `blockers_on_wait`: the serial engine asks for the blocker set of every
/// waiting request (its policy needs it); parsim's nowait does not.
double ReplayLocks(const Workload& workload, const std::vector<LockCall>& calls,
                   bool blockers_on_wait, LockReplayCounts* counts) {
  std::vector<std::unique_ptr<db::LockTable>> tables;
  for (int32_t s = 0; s < workload.num_servers; ++s) {
    tables.push_back(std::make_unique<db::LockTable>(workload.num_items));
  }
  int64_t granted = 0;
  const db::LockTable::GrantCallback on_grant =
      [&granted](TxnId, ItemId, LockMode) { ++granted; };
  const Clock::time_point start = Clock::now();
  for (const LockCall& c : calls) {
    switch (c.kind) {
      case LockCall::Kind::kRequest: {
        db::LockTable& table = *tables[static_cast<size_t>(c.shard)];
        ++counts->requests;
        if (table.Request(c.txn, c.item, c.mode) == db::LockResult::kWaiting) {
          ++counts->waits;
          if (blockers_on_wait) {
            ++counts->blockers;
            granted +=
                static_cast<int64_t>(table.Blockers(c.txn, c.item).size());
          }
        }
        break;
      }
      case LockCall::Kind::kRelease:
        ++counts->releases;
        tables[static_cast<size_t>(c.shard)]->ReleaseAll(c.txn, on_grant);
        break;
      case LockCall::Kind::kAbortAll:
        for (const auto& table : tables) {
          ++counts->releases;
          table->ReleaseAll(c.txn, on_grant);
        }
        break;
    }
  }
  return SecondsSince(start);
}

/// core: WindowManager::OnRequest/OnReturn/OnTxnDrained in steady state.
/// Items take turns; in each turn `fl_len` single-operation transactions
/// queue behind the item's outstanding window, whose final entry then
/// returns (dispatching them as the next window) and whose members drain.
/// Single-operation transactions never close a precedence cycle, so no
/// request aborts.
double ReplayCore(const Workload& workload, int64_t requests, int32_t fl_len,
                  uint64_t seed, int64_t* issued, int64_t* aborts) {
  struct Outstanding {
    std::shared_ptr<const core::ForwardList> fl;
    Version version = 0;
  };
  const int32_t items = workload.num_items;
  db::DataStore store(items);
  std::vector<Outstanding> out(static_cast<size_t>(items));
  core::WindowManager::Callbacks callbacks;
  callbacks.dispatch = [&out](ItemId item, Version version,
                              std::shared_ptr<const core::ForwardList> fl) {
    out[static_cast<size_t>(item)] = Outstanding{std::move(fl), version};
  };
  callbacks.abort = [aborts](TxnId, SiteId) { ++*aborts; };
  core::WindowManager manager(items, core::G2plOptions{}, &store, callbacks);
  rng::Rng rng(seed);
  std::vector<LockMode> modes(4096);
  for (LockMode& mode : modes) {
    mode = rng.Bernoulli(workload.read_prob) ? LockMode::kShared
                                             : LockMode::kExclusive;
  }
  TxnId next_txn = 1;
  const Clock::time_point start = Clock::now();
  for (ItemId item = 0; *issued < requests; item = (item + 1) % items) {
    for (int32_t k = 0; k < fl_len && *issued < requests; ++k) {
      const auto client =
          static_cast<SiteId>(next_txn % workload.num_clients) + 1;
      manager.OnRequest(next_txn, client, item,
                        modes[static_cast<size_t>(next_txn) % modes.size()],
                        0);
      ++next_txn;
      ++*issued;
    }
    Outstanding window = std::move(out[static_cast<size_t>(item)]);
    if (window.fl == nullptr) continue;
    Version returned = window.version;
    for (int32_t e = 0; e < window.fl->num_entries(); ++e) {
      if (!window.fl->entry(e).is_read_group) ++returned;
    }
    const core::FlEntry& last =
        window.fl->entry(window.fl->num_entries() - 1);
    for (int32_t m = 0; m < last.size(); ++m) manager.OnReturn(item, returned);
    for (const TxnId txn : window.fl->MemberTxns()) manager.OnTxnDrained(txn);
  }
  return SecondsSince(start);
}

double TimeNextTxn(const workload::WorkloadProfile& profile, uint64_t seed,
                   int64_t calls) {
  workload::WorkloadGenerator generator(profile, seed);
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < calls; ++i) generator.NextTxn();
  return SecondsSince(start);
}

double TimeGeneratorCtor(const workload::WorkloadProfile& profile,
                         uint64_t seed, int32_t clients) {
  std::vector<std::unique_ptr<workload::WorkloadGenerator>> generators;
  generators.reserve(static_cast<size_t>(clients));
  rng::Rng seeder(seed);
  const Clock::time_point start = Clock::now();
  for (int32_t i = 0; i < clients; ++i) {
    generators.push_back(std::make_unique<workload::WorkloadGenerator>(
        profile, seeder.Next64()));
  }
  return SecondsSince(start);
}

/// obs: Tracer::Emit of every captured event into a StreamSink on
/// /dev/null (full JSONL serialization, no disk I/O).
double TimeEmit(const std::vector<obs::TraceEvent>& trace, bool* ok) {
  sim::Simulator clock;
  obs::Tracer tracer;
  tracer.Attach(&clock);
  tracer.Enable();
  obs::StreamSink sink("/dev/null", 1 << 20);
  *ok = sink.ok();
  tracer.SetSink(&sink);
  const Clock::time_point start = Clock::now();
  for (const obs::TraceEvent& event : trace) tracer.Emit(event);
  sink.Flush();
  return SecondsSince(start);
}

double TimeJsonl(const std::vector<obs::TraceEvent>& trace, int64_t* bytes) {
  constexpr size_t kChunk = 1 << 20;
  std::string out;
  out.reserve(kChunk + 4096);
  const Clock::time_point start = Clock::now();
  for (const obs::TraceEvent& event : trace) {
    obs::AppendEventJsonl(event, &out);
    if (out.size() >= kChunk) {
      *bytes += static_cast<int64_t>(out.size());
      out.clear();
    }
  }
  *bytes += static_cast<int64_t>(out.size());
  return SecondsSince(start);
}

void CheckCount(const char* what, int64_t got, int64_t want,
                LayerReport* report) {
  if (got == want) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s replay issued %lld calls, trace has %lld", what,
                static_cast<long long>(got), static_cast<long long>(want));
  report->failures.push_back(buf);
}

}  // namespace

LayerReport ProbeLayers(const Workload& workload, uint64_t seed,
                        int64_t measured, double seconds, int min_rounds) {
  LayerReport report;
  const Clock::time_point start = Clock::now();
  const proto::SimConfig plain = MakeConfig(workload, seed, measured);
  proto::SimConfig buffered = plain;
  buffered.obs_trace = true;
  proto::SimConfig streamed = buffered;
  streamed.trace_stream_path = "/dev/null";
  const workload::WorkloadProfile& profile = plain.workload;

  proto::RunResult captured = RunWorkload(workload, buffered);
  ++report.runs;
  const std::string digest = Digest(captured);
  Capture cap = Extract(workload, std::move(captured));
  AddIdleLayerCalls(workload, profile, seed, &cap);
  const auto [want_requests, want_releases] =
      ExpectedLockCalls(cap.locks, workload.num_servers);
  const double per_txn = 1.0 / static_cast<double>(cap.commits);
  const double fl_len = Ratio(static_cast<double>(cap.window_members),
                              static_cast<double>(cap.windows));
  const bool core_busy = cap.windows > 0;
  const std::vector<SimTime> delays =
      EventDelays(workload, profile, cap, seed);

  std::vector<double> cpu_ns_per_txn, wall_ns_per_event, wall_s,
      traced_cpu_ns_per_txn, traced_wall_s, queue_ns, net_ns, net_sim_ns,
      lock_ns, core_ns, next_txn_ns, ctor_ms, emit_ns, jsonl_ns;
  LockReplayCounts lock_counts;
  int64_t jsonl_bytes = 0;
  for (int round = 0; round < min_rounds || SecondsSince(start) < seconds;
       ++round) {
    const TimedRun p = TimeWorkload(workload, plain);
    const TimedRun s = TimeWorkload(workload, streamed);
    report.runs += 2;
    if (Digest(p.result) != digest || Digest(s.result) != digest) {
      report.failures.push_back("traced and untraced digests differ: " +
                                digest + " vs " + Digest(p.result) + " vs " +
                                Digest(s.result));
    }
    cpu_ns_per_txn.push_back(PerCall(p.cpu_s, cap.commits));
    wall_ns_per_event.push_back(
        PerCall(p.wall_s, static_cast<int64_t>(cap.events)));
    wall_s.push_back(p.wall_s);
    traced_cpu_ns_per_txn.push_back(PerCall(s.cpu_s, cap.commits));
    traced_wall_s.push_back(s.wall_s);

    EventLoopReplay loop(delays, cap.events);
    queue_ns.push_back(PerCall(loop.Run(workload.num_clients),
                               static_cast<int64_t>(cap.events)));

    const auto msgs = static_cast<int64_t>(cap.msgs.size());
    int64_t delivered = 0;
    int64_t scheduled = 0;
    net_ns.push_back(PerCall(
        ReplayNet(workload, cap.msgs, cap.labels, true, &delivered), msgs));
    net_sim_ns.push_back(PerCall(
        ReplayNet(workload, cap.msgs, cap.labels, false, &scheduled), msgs));

    LockReplayCounts counts;
    const double lock_s =
        ReplayLocks(workload, cap.locks,
                    /*blockers_on_wait=*/!workload.parallel, &counts);
    lock_ns.push_back(PerCall(lock_s, counts.Calls()));

    int64_t issued = 0;
    int64_t core_aborts = 0;
    const auto replay_fl_len =
        std::max<int32_t>(1, static_cast<int32_t>(std::lround(fl_len)));
    const double core_s = ReplayCore(workload, cap.lock_requests,
                                     replay_fl_len, seed, &issued,
                                     &core_aborts);
    core_ns.push_back(PerCall(core_s, issued));

    next_txn_ns.push_back(
        PerCall(TimeNextTxn(profile, seed, cap.begins), cap.begins));
    ctor_ms.push_back(
        1e3 * TimeGeneratorCtor(profile, seed, workload.num_clients));

    bool sink_ok = false;
    const auto trace_events = static_cast<int64_t>(cap.trace.size());
    emit_ns.push_back(PerCall(TimeEmit(cap.trace, &sink_ok), trace_events));
    int64_t bytes = 0;
    jsonl_ns.push_back(PerCall(TimeJsonl(cap.trace, &bytes), trace_events));

    if (round > 0) continue;
    lock_counts = counts;
    jsonl_bytes = bytes;
    CheckCount("sim", static_cast<int64_t>(loop.executed()),
               static_cast<int64_t>(cap.events), &report);
    CheckCount("net", delivered, msgs, &report);
    CheckCount("net (sim only)", scheduled, msgs, &report);
    CheckCount("db Request", counts.requests, want_requests, &report);
    CheckCount("db ReleaseAll", counts.releases, want_releases, &report);
    CheckCount("core", issued, cap.lock_requests, &report);
    if (core_aborts != 0) report.failures.push_back("core replay aborted");
    if (!sink_ok) report.failures.push_back("cannot open /dev/null sink");
    if (cap.db_busy) {
      // Under nowait every waiting request aborts its requester, so the
      // replayed tables must block exactly where the run did.
      CheckCount("db waiting Request", counts.waits, cap.aborts, &report);
    }
  }

  // In-situ denominators: CPU ns per committed txn of the untraced and the
  // traced runs (CPU, not wall, so a parallel run divides by its work).
  const double cpu_ns = Median(cpu_ns_per_txn);
  const double traced_cpu_ns = Median(traced_cpu_ns_per_txn);

  const double events_per_txn = static_cast<double>(cap.events) * per_txn;
  const double queue = Median(queue_ns);
  const double msgs_per_txn =
      cap.net_busy ? static_cast<double>(cap.msgs.size()) * per_txn : 0.0;
  const double net_self = Median(net_ns) - Median(net_sim_ns);
  const double lock_calls_per_txn =
      cap.db_busy ? static_cast<double>(lock_counts.Calls()) * per_txn : 0.0;
  const double lock = Median(lock_ns);
  const double requests_per_txn =
      core_busy ? static_cast<double>(cap.lock_requests) * per_txn : 0.0;
  const double core_request = Median(core_ns);
  const double begins_per_txn = static_cast<double>(cap.begins) * per_txn;
  const double next_txn = Median(next_txn_ns);
  const double ctor = Median(ctor_ms);
  const double obs_events_per_txn =
      static_cast<double>(cap.trace.size()) * per_txn;
  const double emit = Median(emit_ns);

  const double sim_share = events_per_txn * queue / cpu_ns;
  const double net_share = msgs_per_txn * net_self / cpu_ns;
  const double db_share = lock_calls_per_txn * lock / cpu_ns;
  const double core_share = requests_per_txn * core_request / cpu_ns;
  const double workload_share =
      (begins_per_txn * next_txn + ctor * 1e6 * per_txn) / cpu_ns;

  report.metrics = {
      {"sim.events_per_txn", "1/txn", events_per_txn},
      {"sim.host_ns_per_event", "ns", Median(wall_ns_per_event)},
      {"sim.queue_ns_per_event", "ns", queue},
      {"sim.share", "ratio", sim_share},
      {"sim.sync_windows_per_ktxn", "1/ktxn",
       1e3 * static_cast<double>(cap.sync_windows) * per_txn},
      {"sim.stall_pct", "%",
       100.0 * Ratio(static_cast<double>(cap.sync_stalls),
                     static_cast<double>(cap.sync_windows) *
                         workload.num_servers)},
      {"sim.lp_imbalance", "ratio", cap.lp_imbalance},
      {"net.msgs_per_txn", "1/txn", msgs_per_txn},
      {"net.payload_per_txn", "units/txn",
       static_cast<double>(cap.msg_payload) * per_txn},
      {"net.send_ns_per_msg", "ns", net_self},
      {"net.share", "ratio", net_share},
      {"db.lock_calls_per_txn", "1/txn", lock_calls_per_txn},
      {"db.lock_ns_per_call", "ns", lock},
      {"db.share", "ratio", db_share},
      {"core.requests_per_txn", "1/txn", requests_per_txn},
      {"core.windows_per_txn", "1/txn",
       static_cast<double>(cap.windows) * per_txn},
      {"core.fl_len", "count", fl_len},
      {"core.ns_per_request", "ns", core_request},
      {"core.share", "ratio", core_share},
      {"cc.attempts_per_commit", "ratio", begins_per_txn},
      {"workload.next_txn_ns", "ns", next_txn},
      {"workload.ctor_ms", "ms", ctor},
      {"workload.share", "ratio", workload_share},
      {"obs.events_per_txn", "1/txn", obs_events_per_txn},
      {"obs.bytes_per_txn", "B/txn",
       static_cast<double>(jsonl_bytes) * per_txn},
      {"obs.emit_ns_per_event", "ns", emit},
      {"obs.jsonl_ns_per_event", "ns", Median(jsonl_ns)},
      {"obs.overhead_pct", "%",
       100.0 * (Median(traced_wall_s) / Median(wall_s) - 1.0)},
      {"obs.share_traced", "ratio", obs_events_per_txn * emit / traced_cpu_ns},
      {"protocols.unattributed_share", "ratio",
       1.0 - sim_share - net_share - db_share - core_share - workload_share},
  };
  return report;
}

}  // namespace gtpl::perf
