// A6: google-benchmark microbenchmarks of the core data structures — the
// event queue, the strict-2PL lock table, the precedence graph, the workload
// generator's access-set sampling and set-up, the trace writer, and a whole
// small simulation — to keep the substrate's costs visible.

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/precedence_graph.h"
#include "db/lock_table.h"
#include "obs/export.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "protocols/engine.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace gtpl {
namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int64_t n = state.range(0);
  rng::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int64_t i = 0; i < n; ++i) {
      queue.Push(rng.UniformInt(0, 1'000'000), static_cast<uint64_t>(i),
                 [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.Pop().time);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

// Steady state, as a running simulator sees the queue: N events pending,
// then each iteration pops the earliest, runs it, and pushes one at
// now + delay. Each callback captures 32 bytes, past std::function's
// inline buffer, like the engines' closures.
void BM_EventQueueHold(benchmark::State& state) {
  const int64_t n = state.range(0);
  rng::Rng rng(1);
  std::vector<SimTime> delays(4096);
  for (SimTime& delay : delays) delay = rng.UniformInt(0, 1000);
  sim::EventQueue queue;
  uint64_t seq = 0;
  auto push = [&queue, &seq](SimTime time) {
    const int64_t a = static_cast<int64_t>(seq);
    const int64_t b = time;
    const int64_t c = a ^ b;
    const int64_t d = a + b;
    queue.Push(time, seq++,
               [a, b, c, d] { benchmark::DoNotOptimize(a + b + c + d); });
  };
  for (int64_t i = 0; i < n; ++i) push(delays[static_cast<size_t>(i) % 4096]);
  size_t next = 0;
  for (auto _ : state) {
    sim::Event event = queue.Pop();
    event.action();
    push(event.time + delays[next++ % 4096]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(1024)->Arg(16384);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    sim::Simulator sim;
    int64_t counter = 0;
    for (int64_t i = 0; i < n; ++i) {
      sim.Schedule(i % 97, [&counter] { ++counter; });
    }
    sim.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(4096);

void BM_LockTableConflictChurn(benchmark::State& state) {
  const int32_t items = 64;
  rng::Rng rng(7);
  for (auto _ : state) {
    db::LockTable table(items);
    TxnId next = 1;
    std::vector<TxnId> active;
    for (int i = 0; i < 2048; ++i) {
      const TxnId txn = next++;
      table.Request(txn, static_cast<ItemId>(rng.UniformInt(0, items - 1)),
                    rng.Bernoulli(0.5) ? LockMode::kShared
                                       : LockMode::kExclusive);
      active.push_back(txn);
      if (active.size() > 64) {
        table.ReleaseAll(active.front(),
                         [](TxnId, ItemId, LockMode) {});
        active.erase(active.begin());
      }
    }
    for (TxnId txn : active) {
      table.ReleaseAll(txn, [](TxnId, ItemId, LockMode) {});
    }
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_LockTableConflictChurn);

// Set-up cost of one shard's lock table (construction plus teardown) at the
// A19 item space; every item slot starts idle.
void BM_LockTableCtor(benchmark::State& state) {
  const auto items = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    db::LockTable table(items);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_LockTableCtor)->Arg(8192);

// One transaction's access set: k = 5 distinct items from the paper's
// 25-item hot pool and from the A19 item space.
void BM_SampleDistinct(benchmark::State& state) {
  const auto n = static_cast<int32_t>(state.range(0));
  const auto k = static_cast<int32_t>(state.range(1));
  rng::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::SampleDistinct(rng, n, k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleDistinct)->Args({25, 5})->Args({8192, 5});

// Set-up cost of one client's generator (construction plus teardown) at the
// A19 item space, uniform (theta 0) and skewed (theta 0.99, arg x100).
void BM_WorkloadGeneratorCtor(benchmark::State& state) {
  workload::WorkloadProfile profile;
  profile.num_items = 8192;
  profile.zipf_theta = static_cast<double>(state.range(0)) / 100.0;
  uint64_t seed = 1;
  for (auto _ : state) {
    workload::WorkloadGenerator generator(profile, seed++);
    benchmark::DoNotOptimize(generator);
  }
}
BENCHMARK(BM_WorkloadGeneratorCtor)->Arg(0)->Arg(99);

void BM_PrecedenceGraphReachability(benchmark::State& state) {
  // A layered DAG of 512 nodes with fan-out 4.
  core::PrecedenceGraph graph;
  for (TxnId a = 0; a < 512; ++a) {
    for (TxnId d = 1; d <= 4; ++d) {
      if (a + d * 7 < 512) {
        graph.AddEdge(a, a + d * 7, core::kStructuralEdge);
      }
    }
  }
  rng::Rng rng(9);
  for (auto _ : state) {
    const TxnId from = rng.UniformInt(0, 255);
    const TxnId to = rng.UniformInt(256, 511);
    benchmark::DoNotOptimize(graph.CanReach(from, to));
  }
}
BENCHMARK(BM_PrecedenceGraphReachability);

// A fixed mix of trace events as the engines emit them: a transport send
// with its label, a commit carrying its span phases, and a g-2PL window
// dispatch with a three-entry forward list.
std::vector<obs::TraceEvent> TraceEventMix() {
  obs::TraceEvent send;
  send.seq = 1'048'576;
  send.time = 2'500'300;
  send.kind = obs::EventKind::kMsgSend;
  send.site = 17;
  send.peer = 1025;
  send.payload = 1;
  send.d0 = 12;
  send.d1 = 4;
  send.label = "lock-request";

  obs::TraceEvent commit;
  commit.seq = 1'048'577;
  commit.time = 2'500'412;
  commit.kind = obs::EventKind::kTxnCommit;
  commit.txn = 91'234;
  commit.site = 17;
  commit.payload = 1'800;
  commit.d0 = 640;
  commit.d1 = 800;
  commit.d2 = 36;
  commit.d3 = 300;
  commit.d4 = 24;

  obs::TraceEvent dispatch;
  dispatch.seq = 1'048'578;
  dispatch.time = 2'500'500;
  dispatch.kind = obs::EventKind::kWindowDispatch;
  dispatch.item = 811;
  dispatch.shard = 2;
  dispatch.payload = 3;
  dispatch.entries = {{false, {91'230}},
                      {true, {91'231, 91'233, 91'240}},
                      {false, {91'241}}};
  return {send, commit, dispatch};
}

void BM_AppendEventJsonl(benchmark::State& state) {
  const std::vector<obs::TraceEvent> mix = TraceEventMix();
  std::string line;
  for (auto _ : state) {
    for (const obs::TraceEvent& event : mix) {
      line.clear();
      obs::AppendEventJsonl(event, &line);
      benchmark::DoNotOptimize(line.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(mix.size()));
}
BENCHMARK(BM_AppendEventJsonl);

// The streaming sink at its default 1 MiB watermark, writing to /dev/null:
// serialization plus the chunk buffer, without disk I/O.
void BM_StreamSinkAppend(benchmark::State& state) {
  const std::vector<obs::TraceEvent> mix = TraceEventMix();
  obs::StreamSink sink("/dev/null", 1 << 20);
  for (auto _ : state) {
    for (const obs::TraceEvent& event : mix) sink.Append(event);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(mix.size()));
}
BENCHMARK(BM_StreamSinkAppend);

void BM_WholeSimulation(benchmark::State& state) {
  const bool g2pl = state.range(0) != 0;
  for (auto _ : state) {
    proto::SimConfig config;
    config.protocol = g2pl ? proto::Protocol::kG2pl : proto::Protocol::kS2pl;
    config.num_clients = 50;
    config.latency = 500;
    config.workload.read_prob = 0.5;
    config.measured_txns = 500;
    config.warmup_txns = 50;
    config.seed = 5;
    config.max_sim_time = 4'000'000'000;
    const proto::RunResult result = proto::RunSimulation(config);
    benchmark::DoNotOptimize(result.commits);
  }
  state.SetLabel(g2pl ? "g-2PL" : "s-2PL");
}
BENCHMARK(BM_WholeSimulation)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gtpl

BENCHMARK_MAIN();
