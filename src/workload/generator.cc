#include "workload/generator.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace gtpl::workload {

WorkloadGenerator::WorkloadGenerator(const WorkloadProfile& profile,
                                     uint64_t seed)
    : profile_(profile),
      rng_(seed),
      items_rng_(rng::StreamSeed(seed, rng::SeedStream::kWorkloadItems)),
      mix_rng_(rng::StreamSeed(seed, rng::SeedStream::kWorkloadMix)) {
  GTPL_CHECK_GT(profile.num_items, 0);
  GTPL_CHECK_GE(profile.min_items_per_txn, 1);
  GTPL_CHECK_LE(profile.min_items_per_txn, profile.max_items_per_txn);
  GTPL_CHECK_LE(profile.max_items_per_txn, profile.num_items);
  GTPL_CHECK_GE(profile.read_prob, 0.0);
  GTPL_CHECK_LE(profile.read_prob, 1.0);
  GTPL_CHECK_LE(profile.min_think, profile.max_think);
  GTPL_CHECK_LE(profile.min_idle, profile.max_idle);
  GTPL_CHECK_GE(profile.min_think, 0);
  GTPL_CHECK_GE(profile.min_idle, 0);
  GTPL_CHECK_GE(profile.repeat_prob, 0.0);
  GTPL_CHECK_LE(profile.repeat_prob, 1.0);
  if (profile.zipf_theta != 0.0) {
    zipf_.emplace(profile.num_items, profile.zipf_theta);
  }
}

TxnSpec WorkloadGenerator::NextTxn() {
  TxnSpec spec;
  std::vector<int32_t> items;
  // Item-selection draws come from items_rng(): the dedicated kWorkloadItems
  // stream when an access-pattern knob is active, else the base stream (so
  // the paper-default configuration replays bit for bit). The guard keeps
  // repeat_prob == 0.0 free of extra stream draws either way.
  if (profile_.repeat_prob > 0.0 && !last_items_.empty() &&
      items_rng().Bernoulli(profile_.repeat_prob)) {
    items = last_items_;  // re-access the previous working set
  } else {
    const auto count = static_cast<int32_t>(items_rng().UniformInt(
        profile_.min_items_per_txn, profile_.max_items_per_txn));
    if (profile_.zipf_theta == 0.0) {
      items = rng::SampleDistinct(items_rng(), profile_.num_items, count);
    } else {
      // Distinct Zipf draws: resample duplicates. The pool is small and the
      // per-transaction count <= 5, so rejection terminates fast.
      std::unordered_set<int32_t> seen;
      while (static_cast<int32_t>(items.size()) < count) {
        const int32_t item = zipf_->Sample(items_rng());
        if (seen.insert(item).second) items.push_back(item);
      }
    }
  }
  if (profile_.sorted_access) std::sort(items.begin(), items.end());
  last_items_ = items;
  spec.ops.reserve(items.size());
  for (int32_t item : items) {
    const LockMode mode = mix_rng().Bernoulli(profile_.read_prob)
                              ? LockMode::kShared
                              : LockMode::kExclusive;
    spec.ops.push_back(Operation{item, mode});
  }
  return spec;
}

SimTime WorkloadGenerator::SampleThink() {
  return rng_.UniformInt(profile_.min_think, profile_.max_think);
}

SimTime WorkloadGenerator::SampleIdle() {
  return rng_.UniformInt(profile_.min_idle, profile_.max_idle);
}

}  // namespace gtpl::workload
