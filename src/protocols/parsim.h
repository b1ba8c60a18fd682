#ifndef GTPL_PROTOCOLS_PARSIM_H_
#define GTPL_PROTOCOLS_PARSIM_H_

#include "protocols/config.h"
#include "protocols/metrics.h"

namespace gtpl::proto {

/// Runs `config` on the conservative per-shard parallel engine
/// (DESIGN.md §15): one sim::ShardSim logical process per server shard,
/// hosting that shard's lock table and data store plus the clients with
/// index % num_servers == shard. Every client<->server interaction rides a
/// cross-LP channel message of exactly one WAN latency — the kernel's
/// lookahead — so LPs execute whole windows concurrently without locks.
///
/// Determinism contract: results are bit-identical at ANY sim_threads
/// value >= 1 (windows, channel merge order, and the barrier-snapshot
/// warmup/stop gates are all thread-count independent). They are NOT
/// byte-identical to the serial engine the same config runs at
/// sim_threads == 1 through RunSimulation: the serial engine assigns txn
/// ids in global begin order and evaluates warmup/stop per-commit, which
/// a parallel run cannot reproduce without serializing. This engine
/// stripes ids (client c's k-th txn is k * num_clients + c + 1 — still a
/// valid age order for wait-die) and latches the warmup flag / stop
/// target at window barriers over global commit-count snapshots.
///
/// Modeling deltas vs. the serial engines, all documented in §15: an
/// abort victim's locks on non-deciding shards are released by explicit
/// client cleanup messages (decision + notice + release, instead of the
/// serial instantaneous coordination plane; Validate requires
/// --charged-abort-notice for this reason), the 2PC decision rides the
/// release messages, and prepare/vote sub-spans are computed from the
/// uniform latency.
///
/// `config` must satisfy the sim_threads > 1 subset of
/// SimConfig::Validate (checked here even when config.sim_threads == 1,
/// so benches can run the engine single-threaded as a scaling baseline).
RunResult RunParallelSimulation(const SimConfig& config);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_PARSIM_H_
