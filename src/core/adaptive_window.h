#ifndef GTPL_CORE_ADAPTIVE_WINDOW_H_
#define GTPL_CORE_ADAPTIVE_WINDOW_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace gtpl::core {

// Fixed parameters of the per-item adaptive forward-list cap controller
// (an online alternative to the static `max_forward_list_length` of
// Figure 11; DESIGN.md §10).

/// Cap every item starts at.
inline constexpr int32_t kAdaptiveInitialCap = 4;
/// Floor of the effective cap: a window always admits one request.
inline constexpr int32_t kAdaptiveMinCap = 1;
/// Ceiling of the effective cap.
inline constexpr int32_t kAdaptiveMaxCap = 32;
/// Multiplicative decrease applied to an item's cap on every
/// deadlock-avoidance or aging abort charged to that item.
inline constexpr double kAdaptiveDecreaseFactor = 0.5;
/// Additive increase (requests) after `kAdaptiveHysteresis` clean windows.
inline constexpr int32_t kAdaptiveIncreaseStep = 1;
/// Consecutive clean (abort-free) windows an item must complete before its
/// cap grows by `kAdaptiveIncreaseStep`.
inline constexpr int32_t kAdaptiveHysteresis = 2;

/// Per-item AIMD controller for the effective forward-list cap.
///
/// Signals: every deadlock-avoidance rejection or aging abort that a window
/// decision charges to an item multiplicatively shrinks that item's cap
/// (`kAdaptiveDecreaseFactor`), floored at `kAdaptiveMinCap`; a window
/// interval that passes with no such signal counts as "clean", and after
/// `kAdaptiveHysteresis` consecutive clean windows the cap grows by
/// `kAdaptiveIncreaseStep`, capped at `kAdaptiveMaxCap`.
///
/// Determinism contract: the controller is pure state driven by the
/// simulation's event order — no clocks, no randomness — so runs with equal
/// seeds and configs produce bit-identical caps. The g-2PL engine's one
/// WindowManager owns one controller over the whole item space, at every
/// shard count: abort feedback reaches the item's state in the order the
/// manager decides and purges.
class AdaptiveWindowController {
 public:
  explicit AdaptiveWindowController(int32_t num_items);

  AdaptiveWindowController(const AdaptiveWindowController&) = delete;
  AdaptiveWindowController& operator=(const AdaptiveWindowController&) =
      delete;

  /// The integer cap currently in effect for `item` (in
  /// [kAdaptiveMinCap, kAdaptiveMaxCap]).
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

 private:
  struct ItemControl {
    // Continuous cap, clamped to [kAdaptiveMinCap, kAdaptiveMaxCap].
    double cap = static_cast<double>(kAdaptiveInitialCap);
    int32_t clean_streak = 0;    // consecutive clean windows
    bool dirty = false;          // abort feedback since the last window
    bool touched = false;        // dispatched at least one window
  };

  int32_t EffectiveCap(const ItemControl& control) const;
  double FinalCapSum() const;
  int64_t TouchedItems() const;

  std::vector<ItemControl> items_;
  int64_t cap_increases_ = 0;
  int64_t cap_decreases_ = 0;
  int64_t windows_sampled_ = 0;
  double cap_sample_sum_ = 0.0;
};

}  // namespace gtpl::core

#endif  // GTPL_CORE_ADAPTIVE_WINDOW_H_
