#include "core/adaptive_window.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace gtpl::core {

AdaptiveWindowController::AdaptiveWindowController(int32_t num_items)
    : items_(static_cast<size_t>(num_items)) {
  GTPL_CHECK_GT(num_items, 0);
}

int32_t AdaptiveWindowController::EffectiveCap(
    const ItemControl& control) const {
  // The continuous cap is kept in [kAdaptiveMinCap, kAdaptiveMaxCap]; the
  // effective integer cap is its floor, re-floored at kAdaptiveMinCap so a
  // multiplicative decrease that lands between integers still admits at
  // least that many requests.
  const auto floored = static_cast<int32_t>(std::floor(control.cap));
  return std::clamp(floored, kAdaptiveMinCap, kAdaptiveMaxCap);
}

int32_t AdaptiveWindowController::CapFor(ItemId item) const {
  GTPL_CHECK_GE(item, 0);
  GTPL_CHECK_LT(static_cast<size_t>(item), items_.size());
  return EffectiveCap(items_[static_cast<size_t>(item)]);
}

int32_t AdaptiveWindowController::NextWindowCap(ItemId item) {
  GTPL_CHECK_GE(item, 0);
  GTPL_CHECK_LT(static_cast<size_t>(item), items_.size());
  ItemControl& control = items_[static_cast<size_t>(item)];
  if (!control.touched) {
    // First window of the item: nothing to settle yet.
    control.touched = true;
  } else if (control.dirty) {
    control.dirty = false;  // decrease already applied at feedback time
  } else {
    ++control.clean_streak;
    if (control.clean_streak >= kAdaptiveHysteresis) {
      control.clean_streak = 0;
      const double grown =
          std::min(static_cast<double>(kAdaptiveMaxCap),
                   control.cap + static_cast<double>(kAdaptiveIncreaseStep));
      if (grown > control.cap) {
        control.cap = grown;
        ++cap_increases_;
      }
    }
  }
  const int32_t cap = EffectiveCap(control);
  ++windows_sampled_;
  cap_sample_sum_ += static_cast<double>(cap);
  return cap;
}

void AdaptiveWindowController::OnAbortFeedback(ItemId item) {
  GTPL_CHECK_GE(item, 0);
  GTPL_CHECK_LT(static_cast<size_t>(item), items_.size());
  ItemControl& control = items_[static_cast<size_t>(item)];
  control.dirty = true;
  control.clean_streak = 0;
  const double shrunk = std::max(static_cast<double>(kAdaptiveMinCap),
                                 control.cap * kAdaptiveDecreaseFactor);
  if (shrunk < control.cap) {
    control.cap = shrunk;
    ++cap_decreases_;
  }
}

double AdaptiveWindowController::MeanEffectiveCap() const {
  if (windows_sampled_ == 0) return 0.0;
  return cap_sample_sum_ / static_cast<double>(windows_sampled_);
}

double AdaptiveWindowController::FinalCapSum() const {
  double sum = 0.0;
  for (const ItemControl& control : items_) {
    if (control.touched) sum += static_cast<double>(EffectiveCap(control));
  }
  return sum;
}

int64_t AdaptiveWindowController::TouchedItems() const {
  int64_t count = 0;
  for (const ItemControl& control : items_) {
    if (control.touched) ++count;
  }
  return count;
}

double AdaptiveWindowController::FinalEffectiveCap() const {
  const int64_t touched = TouchedItems();
  if (touched == 0) return 0.0;
  return FinalCapSum() / static_cast<double>(touched);
}

}  // namespace gtpl::core
