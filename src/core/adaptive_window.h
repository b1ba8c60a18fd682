#ifndef GTPL_CORE_ADAPTIVE_WINDOW_H_
#define GTPL_CORE_ADAPTIVE_WINDOW_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace gtpl::core {

/// Knobs of the per-item adaptive forward-list cap controller (an online
/// alternative to the static `max_forward_list_length` of Figure 11). Off by
/// default; when off the engines are bit-identical to the static-cap path.
struct AdaptiveWindowOptions {
  /// Master switch. When false no controller is constructed and
  /// `G2plOptions::max_forward_list_length` applies unchanged.
  bool enabled = false;

  /// Cap every item starts at. Must lie in [min_cap, max_cap].
  int32_t initial_cap = 4;

  /// Floor of the effective cap (>= 1: a window always admits one request).
  int32_t min_cap = 1;

  /// Ceiling of the effective cap.
  int32_t max_cap = 32;

  /// Multiplicative-decrease factor in (0, 1): applied to the item's cap on
  /// every deadlock-avoidance or aging abort charged to that item.
  double decrease_factor = 0.5;

  /// Additive-increase step (requests) applied after `hysteresis`
  /// consecutive clean windows of the item.
  int32_t increase_step = 1;

  /// Number of consecutive clean (abort-free) windows an item must complete
  /// before its cap grows by `increase_step`. >= 1.
  int32_t hysteresis = 2;
};

/// Per-item AIMD controller for the effective forward-list cap.
///
/// Signals: every deadlock-avoidance rejection or aging abort that a window
/// decision charges to an item multiplicatively shrinks that item's cap
/// (`decrease_factor`), floored at `min_cap`; a window interval that passes
/// with no such signal counts as "clean", and after `hysteresis` consecutive
/// clean windows the cap grows by `increase_step`, capped at `max_cap`.
///
/// Determinism contract: the controller is pure state driven by the
/// simulation's event order — no clocks, no randomness — so runs with equal
/// seeds and configs produce bit-identical caps. The g-2PL engine's one
/// WindowManager owns one controller over the whole item space, at every
/// shard count: abort feedback reaches the item's state in the order the
/// manager decides and purges.
class AdaptiveWindowController {
 public:
  AdaptiveWindowController(int32_t num_items,
                           const AdaptiveWindowOptions& options);

  AdaptiveWindowController(const AdaptiveWindowController&) = delete;
  AdaptiveWindowController& operator=(const AdaptiveWindowController&) =
      delete;

  /// The integer cap currently in effect for `item` (in [min_cap, max_cap]).
  /// Pure read — no state change (used by read-group expansion checks).
  int32_t CapFor(ItemId item) const;

  /// A window for `item` is about to be dispatched: settles the interval
  /// since the item's previous window (a clean interval advances the
  /// hysteresis streak and may trigger additive growth), then samples and
  /// returns the cap the new window must honor.
  int32_t NextWindowCap(ItemId item);

  /// An abort decision (deadlock-avoidance rejection or aging victim) was
  /// charged to `item`'s window: multiplicative decrease, applied
  /// immediately, and the clean streak resets.
  void OnAbortFeedback(ItemId item);

  /// Adjustment counters (an adjustment = a cap actually moved).
  int64_t cap_increases() const { return cap_increases_; }
  int64_t cap_decreases() const { return cap_decreases_; }

  /// Number of NextWindowCap samples and their sum, for the mean effective
  /// cap over dispatched windows.
  int64_t windows_sampled() const { return windows_sampled_; }
  double cap_sample_sum() const { return cap_sample_sum_; }
  double MeanEffectiveCap() const;

  /// Mean end-of-run cap over items that dispatched at least one window.
  double FinalEffectiveCap() const;

  const AdaptiveWindowOptions& options() const { return options_; }

 private:
  struct ItemControl {
    double cap = 0.0;            // continuous cap, clamped to [min, max]
    int32_t clean_streak = 0;    // consecutive clean windows
    bool dirty = false;          // abort feedback since the last window
    bool touched = false;        // dispatched at least one window
  };

  int32_t EffectiveCap(const ItemControl& control) const;
  double FinalCapSum() const;
  int64_t TouchedItems() const;

  AdaptiveWindowOptions options_;
  std::vector<ItemControl> items_;
  int64_t cap_increases_ = 0;
  int64_t cap_decreases_ = 0;
  int64_t windows_sampled_ = 0;
  double cap_sample_sum_ = 0.0;
};

}  // namespace gtpl::core

#endif  // GTPL_CORE_ADAPTIVE_WINDOW_H_
