// Unit tests for the per-item adaptive forward-list cap controller: AIMD
// step behavior, clamps, hysteresis, per-item isolation, determinism — and
// its integration with the WindowManager dispatch/abort paths.

#include "core/adaptive_window.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/window_manager.h"
#include "db/data_store.h"

namespace gtpl::core {
namespace {

// The cases below are written against these values.
static_assert(kAdaptiveInitialCap == 4 && kAdaptiveMinCap == 1 &&
              kAdaptiveMaxCap == 32 && kAdaptiveDecreaseFactor == 0.5 &&
              kAdaptiveIncreaseStep == 1 && kAdaptiveHysteresis == 2);

TEST(AdaptiveWindowControllerTest, StartsAtInitialCap) {
  AdaptiveWindowController ctl(3);
  EXPECT_EQ(ctl.CapFor(0), 4);
  EXPECT_EQ(ctl.CapFor(2), 4);
  EXPECT_EQ(ctl.cap_increases(), 0);
  EXPECT_EQ(ctl.cap_decreases(), 0);
  EXPECT_EQ(ctl.windows_sampled(), 0);
  EXPECT_DOUBLE_EQ(ctl.MeanEffectiveCap(), 0.0);
  EXPECT_DOUBLE_EQ(ctl.FinalEffectiveCap(), 0.0);
}

TEST(AdaptiveWindowControllerTest, AdditiveIncreaseAfterHysteresisWindows) {
  AdaptiveWindowController ctl(1);
  // First window only marks the item; growth needs `hysteresis` *completed*
  // clean intervals after it.
  EXPECT_EQ(ctl.NextWindowCap(0), 4);
  EXPECT_EQ(ctl.NextWindowCap(0), 4);  // 1 clean interval
  EXPECT_EQ(ctl.NextWindowCap(0), 5);  // 2nd clean interval -> +1
  EXPECT_EQ(ctl.NextWindowCap(0), 5);
  EXPECT_EQ(ctl.NextWindowCap(0), 6);
  EXPECT_EQ(ctl.cap_increases(), 2);
  EXPECT_EQ(ctl.cap_decreases(), 0);
}

TEST(AdaptiveWindowControllerTest, MultiplicativeDecreaseOnFeedback) {
  AdaptiveWindowController ctl(1);
  ctl.OnAbortFeedback(0);
  EXPECT_EQ(ctl.CapFor(0), 2);
  ctl.OnAbortFeedback(0);
  EXPECT_EQ(ctl.CapFor(0), 1);  // floor at kAdaptiveMinCap
  EXPECT_EQ(ctl.cap_decreases(), 2);
  // At the floor, feedback no longer counts as an adjustment.
  ctl.OnAbortFeedback(0);
  EXPECT_EQ(ctl.CapFor(0), 1);
  EXPECT_EQ(ctl.cap_decreases(), 2);
}

TEST(AdaptiveWindowControllerTest, FractionalCapFloorsAboveMin) {
  AdaptiveWindowController ctl(1);
  EXPECT_EQ(ctl.NextWindowCap(0), 4);
  EXPECT_EQ(ctl.NextWindowCap(0), 4);
  EXPECT_EQ(ctl.NextWindowCap(0), 5);
  ctl.OnAbortFeedback(0);  // 5 * 0.5 = 2.5
  EXPECT_EQ(ctl.CapFor(0), 2);
  ctl.OnAbortFeedback(0);  // 1.25
  EXPECT_EQ(ctl.CapFor(0), 1);
  EXPECT_EQ(ctl.cap_decreases(), 2);
}

TEST(AdaptiveWindowControllerTest, FeedbackResetsHysteresisStreak) {
  AdaptiveWindowController ctl(1);
  EXPECT_EQ(ctl.NextWindowCap(0), 4);
  EXPECT_EQ(ctl.NextWindowCap(0), 4);  // streak 1 of 2
  ctl.OnAbortFeedback(0);              // cap -> 2, streak reset
  EXPECT_EQ(ctl.NextWindowCap(0), 2);  // dirty interval: no streak credit
  EXPECT_EQ(ctl.NextWindowCap(0), 2);  // streak 1
  EXPECT_EQ(ctl.NextWindowCap(0), 3);  // streak 2 -> grow
  EXPECT_EQ(ctl.cap_increases(), 1);
  EXPECT_EQ(ctl.cap_decreases(), 1);
}

TEST(AdaptiveWindowControllerTest, ClampsAtMaxCap) {
  AdaptiveWindowController ctl(1);
  EXPECT_EQ(ctl.NextWindowCap(0), 4);
  // Every second clean window grows the cap by one: 28 steps reach 32.
  for (int32_t cap = 5; cap <= 32; ++cap) {
    EXPECT_EQ(ctl.NextWindowCap(0), cap - 1);
    EXPECT_EQ(ctl.NextWindowCap(0), cap);
  }
  EXPECT_EQ(ctl.cap_increases(), 28);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ctl.NextWindowCap(0), 32);
  EXPECT_EQ(ctl.cap_increases(), 28);  // pinned at the ceiling, never "moved"
}

TEST(AdaptiveWindowControllerTest, ItemsAdaptIndependently) {
  AdaptiveWindowController ctl(2);
  ctl.NextWindowCap(0);
  ctl.NextWindowCap(1);
  ctl.OnAbortFeedback(0);
  EXPECT_EQ(ctl.CapFor(0), 2);
  EXPECT_EQ(ctl.CapFor(1), 4);
}

TEST(AdaptiveWindowControllerTest, TracksMeanAndFinalCapOverTouchedItems) {
  AdaptiveWindowController ctl(4);
  EXPECT_EQ(ctl.NextWindowCap(0), 4);
  EXPECT_EQ(ctl.NextWindowCap(1), 4);
  ctl.OnAbortFeedback(0);
  EXPECT_EQ(ctl.NextWindowCap(0), 2);
  // Samples: 4, 4, 2 -> mean 10/3. Items 2 and 3 never dispatched: excluded
  // from the final cap (only 0 at cap 2 and 1 at cap 4 count: 6 / 2, where
  // counting the untouched items at cap 4 would give 14 / 4).
  EXPECT_EQ(ctl.windows_sampled(), 3);
  EXPECT_DOUBLE_EQ(ctl.MeanEffectiveCap(), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(ctl.FinalEffectiveCap(), 3.0);
}

TEST(AdaptiveWindowControllerTest, ReplayedSignalSequenceIsBitIdentical) {
  // The controller is pure state: the same signal sequence must reproduce
  // every sample and counter exactly (the determinism contract the
  // simulator relies on).
  const auto drive = [](AdaptiveWindowController* ctl,
                        std::vector<int32_t>* samples) {
    for (int round = 0; round < 50; ++round) {
      const ItemId item = round % 3;
      samples->push_back(ctl->NextWindowCap(item));
      if (round % 7 == 0) ctl->OnAbortFeedback(item);
      if (round % 11 == 0) ctl->OnAbortFeedback((item + 1) % 3);
    }
  };
  AdaptiveWindowController a(3);
  AdaptiveWindowController b(3);
  std::vector<int32_t> samples_a;
  std::vector<int32_t> samples_b;
  drive(&a, &samples_a);
  drive(&b, &samples_b);
  EXPECT_EQ(samples_a, samples_b);
  EXPECT_EQ(a.cap_increases(), b.cap_increases());
  EXPECT_EQ(a.cap_decreases(), b.cap_decreases());
  EXPECT_DOUBLE_EQ(a.cap_sample_sum(), b.cap_sample_sum());
  EXPECT_DOUBLE_EQ(a.FinalEffectiveCap(), b.FinalEffectiveCap());
}

// ---------------------------------------------------------------------------
// WindowManager integration
// ---------------------------------------------------------------------------

class AdaptiveWindowManagerTest : public ::testing::Test {
 protected:
  AdaptiveWindowManagerTest() : store_(4) {}

  void Init(const G2plOptions& options) {
    WindowManager::Callbacks callbacks;
    callbacks.dispatch = [this](ItemId item, Version version,
                                std::shared_ptr<const ForwardList> fl) {
      (void)version;
      dispatched_sizes_.push_back(fl->num_members());
      dispatched_items_.push_back(item);
    };
    callbacks.abort = [this](TxnId txn, SiteId client) {
      (void)client;
      aborts_.push_back(txn);
    };
    callbacks.expand = [this](ItemId, Version,
                              std::shared_ptr<const ForwardList>, TxnId txn,
                              SiteId) { expansions_.push_back(txn); };
    wm_ = std::make_unique<WindowManager>(4, options, &store_, callbacks);
  }

  db::DataStore store_;
  std::unique_ptr<WindowManager> wm_;
  std::vector<int32_t> dispatched_sizes_;
  std::vector<ItemId> dispatched_items_;
  std::vector<TxnId> aborts_;
  std::vector<TxnId> expansions_;
};

TEST_F(AdaptiveWindowManagerTest, ControllerAbsentWhenDisabled) {
  Init(G2plOptions{});
  EXPECT_EQ(wm_->adaptive_controller(), nullptr);
}

TEST_F(AdaptiveWindowManagerTest, AdaptiveCapLimitsDispatchBatch) {
  G2plOptions options;
  options.adaptive_window = true;
  Init(options);
  ASSERT_NE(wm_->adaptive_controller(), nullptr);
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);
  for (TxnId t = 2; t <= 7; ++t) {
    wm_->OnRequest(t, static_cast<SiteId>(t), 0, LockMode::kExclusive, 0);
  }
  wm_->OnTxnDrained(1);
  wm_->OnReturn(0, 1);
  // The second window honors the adaptive cap (4), not the static cap (0 =
  // unbounded): 4 of the 6 waiters are granted, 2 stay pending.
  ASSERT_EQ(dispatched_sizes_.size(), 2u);
  EXPECT_EQ(dispatched_sizes_[1], 4);
  EXPECT_EQ(wm_->PendingCount(0), 2);
}

TEST_F(AdaptiveWindowManagerTest, DispatchAbortFeedbackShrinksItemCap) {
  // A deadlock resolved by the dispatch-time pending sweep, not at request
  // time: T4 structurally precedes T2 (item 1's grant order), then queues
  // for item 0 behind T2, T3, T5 and T6. With the cap at 4, the batch
  // [T2 T3 T5 T6] goes out and the leftover T4 already precedes a batch
  // member — it is aborted at dispatch, and the controller shrinks *item
  // 0's* cap.
  G2plOptions options;
  options.adaptive_window = true;
  Init(options);
  wm_->OnRequest(4, 4, 1, LockMode::kExclusive, 0);  // T4 holds item 1
  wm_->OnRequest(1, 1, 0, LockMode::kExclusive, 0);  // T1 holds item 0
  wm_->OnRequest(2, 2, 1, LockMode::kExclusive, 0);  // T2 pending item 1
  wm_->OnReturn(1, 1);  // [W{T2}] at item 1: structural edge T4 -> T2
  wm_->OnRequest(2, 2, 0, LockMode::kExclusive, 0);  // T2 pending item 0
  wm_->OnRequest(3, 3, 0, LockMode::kExclusive, 0);  // T3 pending item 0
  wm_->OnRequest(5, 5, 0, LockMode::kExclusive, 0);  // T5 pending item 0
  wm_->OnRequest(6, 6, 0, LockMode::kExclusive, 0);  // T6 pending item 0
  wm_->OnRequest(4, 4, 0, LockMode::kExclusive, 0);  // T4 queues fifth
  EXPECT_EQ(wm_->adaptive_controller()->CapFor(0), 4);
  EXPECT_TRUE(aborts_.empty());
  wm_->OnReturn(0, 1);  // batch [T2 T3 T5 T6]; leftover T4 precedes T2
  ASSERT_EQ(aborts_.size(), 1u);
  EXPECT_EQ(aborts_[0], 4);
  EXPECT_EQ(wm_->aborts_at_dispatch_pending(), 1);
  EXPECT_EQ(wm_->aborts_at_dispatch_batch(), 0);
  ASSERT_FALSE(dispatched_sizes_.empty());
  EXPECT_EQ(dispatched_sizes_.back(), 4);
  EXPECT_EQ(wm_->PendingCount(0), 0);
  // One multiplicative decrease at item 0; item 1 is untouched.
  EXPECT_EQ(wm_->adaptive_controller()->CapFor(0), 2);
  EXPECT_EQ(wm_->adaptive_controller()->CapFor(1), 4);
  EXPECT_EQ(wm_->adaptive_controller()->cap_decreases(), 1);
}

TEST_F(AdaptiveWindowManagerTest, RequestAbortFeedbackChargesDecisionItem) {
  // The paper's read-deadlock shape (§3.3): the cycle closes at request
  // time on item 0, so item 0's controller takes the hit.
  G2plOptions options;
  options.adaptive_window = true;
  Init(options);
  wm_->OnRequest(1, 1, 0, LockMode::kShared, 0);
  wm_->OnRequest(2, 2, 1, LockMode::kShared, 0);
  wm_->OnRequest(1, 1, 1, LockMode::kShared, 0);  // T1 waits for item 1
  wm_->OnRequest(2, 2, 0, LockMode::kShared, 0);  // closes the cycle
  ASSERT_EQ(aborts_.size(), 1u);
  EXPECT_EQ(wm_->adaptive_controller()->cap_decreases(), 1);
  EXPECT_EQ(wm_->adaptive_controller()->CapFor(0), 2);
  EXPECT_EQ(wm_->adaptive_controller()->CapFor(1), 4);
}

TEST_F(AdaptiveWindowManagerTest, ExpansionHonorsAdaptiveCap) {
  G2plOptions options;
  options.expand_read_groups = true;
  options.adaptive_window = true;
  Init(options);
  // Expansion reads the cap without settling a window, so it stays at 4.
  wm_->OnRequest(1, 1, 0, LockMode::kShared, 0);
  for (TxnId t = 2; t <= 4; ++t) {
    wm_->OnRequest(t, static_cast<SiteId>(t), 0, LockMode::kShared, 0);
  }
  EXPECT_EQ(wm_->PendingCount(0), 0);
  EXPECT_EQ(wm_->expansions(), 3);  // 4 members
  wm_->OnRequest(5, 5, 0, LockMode::kShared, 0);  // cap reached: must queue
  EXPECT_EQ(wm_->expansions(), 3);
  EXPECT_EQ(wm_->PendingCount(0), 1);
}

}  // namespace
}  // namespace gtpl::core
