#ifndef GTPL_WORKLOAD_GENERATOR_H_
#define GTPL_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "rng/distributions.h"
#include "rng/rng.h"
#include "workload/txn_spec.h"

namespace gtpl::workload {

/// Statistical profile of the client workload (paper Table 1 defaults).
struct WorkloadProfile {
  /// Size of the hot-item pool at the server (paper: 25, deliberately small
  /// to emulate hot data access).
  int32_t num_items = 25;
  /// Items accessed per transaction, U[min,max] distinct (paper: 1..5).
  int32_t min_items_per_txn = 1;
  int32_t max_items_per_txn = 5;
  /// Probability an access is a read; writes have probability 1 - read_prob.
  double read_prob = 0.5;
  /// Per-operation computation (think) time, U[min,max] (paper: 1..3).
  SimTime min_think = 1;
  SimTime max_think = 3;
  /// Idle time between transactions at a client, U[min,max] (paper: 2..10).
  SimTime min_idle = 2;
  SimTime max_idle = 10;
  /// Zipf skew over the hot pool; 0 = uniform as in the paper (extension).
  double zipf_theta = 0.0;
  /// Access items in ascending id order (canonical deadlock-free ordering;
  /// extension used by tests and ablations). The paper's order is random.
  bool sorted_access = false;
  /// Probability the next transaction re-accesses the previous transaction's
  /// item set (modes are re-drawn) instead of sampling fresh items — the
  /// repeat-access knob behind the lease/caching ablations (DESIGN.md §14).
  /// 0 draws nothing extra from the stream, so legacy runs are bit-identical.
  double repeat_prob = 0.0;
};

/// Draws transaction specs and timing samples for one client, from a
/// dedicated deterministic stream.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadProfile& profile, uint64_t seed);

  /// Next transaction access plan. Ids are assigned by the caller (engine)
  /// so that they are globally unique across clients.
  TxnSpec NextTxn();

  SimTime SampleThink();
  SimTime SampleIdle();

  const WorkloadProfile& profile() const { return profile_; }

 private:
  /// True when an access-pattern knob (zipf_theta or repeat_prob) is active:
  /// item-selection draws then come from items_rng_ and read/write-mode
  /// draws from mix_rng_ (dedicated rng::SeedStream streams), leaving the
  /// base stream to think/idle times alone — so toggling one access-pattern
  /// knob never perturbs the timing draws (or the other knob's stream). At
  /// the paper defaults every draw stays on the single base stream, keeping
  /// legacy runs bit-identical.
  bool split_streams() const {
    return profile_.zipf_theta != 0.0 || profile_.repeat_prob > 0.0;
  }
  rng::Rng& items_rng() { return split_streams() ? items_rng_ : rng_; }
  rng::Rng& mix_rng() { return split_streams() ? mix_rng_ : rng_; }

  WorkloadProfile profile_;
  rng::Rng rng_;
  rng::Rng items_rng_;
  rng::Rng mix_rng_;
  /// Built only at zipf_theta != 0 (uniform draws never read it): its CDF is
  /// num_items doubles per client.
  std::optional<rng::Zipf> zipf_;
  std::vector<int32_t> last_items_;  // previous txn's items (repeat_prob)
};

}  // namespace gtpl::workload

#endif  // GTPL_WORKLOAD_GENERATOR_H_
