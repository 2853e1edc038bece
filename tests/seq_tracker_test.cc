// Tests for receiver sequence bookkeeping with loss-tolerance waiving.
#include "core/seq_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>

namespace jtp::core {
namespace {

// A tracker written with ordered sets and a map, one entry per received,
// waived or gap-stamped sequence number at or above the cumulative ACK.
// It states the tracker's contract plainly; the ring-backed SeqTracker
// must answer every call exactly like it.
class SetReferenceTracker {
 public:
  explicit SetReferenceTracker(double tolerance) : tolerance_(tolerance) {}

  bool receive(SeqNo seq) {
    if (seq < base_ || received_set_.count(seq) || waived_set_.count(seq)) {
      ++duplicates_;
      return false;
    }
    ++arrivals_;
    for (SeqNo s = horizon_; s < seq; ++s) gap_at_.emplace(s, arrivals_);
    horizon_ = std::max(horizon_, seq + 1);
    gap_at_.erase(seq);
    received_set_.insert(seq);
    ++received_;
    advance_base();
    return true;
  }

  std::vector<SeqNo> missing_after_waive(std::size_t cap, int threshold) {
    std::vector<SeqNo> out;
    for (SeqNo s = base_; s < horizon_ && out.size() < cap; ++s) {
      if (received_set_.count(s) || waived_set_.count(s)) continue;
      if (threshold > 0 &&
          arrivals_ - gap_at_.at(s) < static_cast<std::uint64_t>(threshold))
        continue;
      const double total = static_cast<double>(received_ + waived_ + 1);
      if (static_cast<double>(waived_) + 1.0 <= tolerance_ * total) {
        waived_set_.insert(s);
        ++waived_;
        continue;
      }
      out.push_back(s);
    }
    advance_base();
    return out;
  }

  std::vector<SeqNo> missing() const {
    std::vector<SeqNo> out;
    for (SeqNo s = base_; s < horizon_; ++s)
      if (!received_set_.count(s) && !waived_set_.count(s)) out.push_back(s);
    return out;
  }

  SeqNo base_ = 0;
  SeqNo horizon_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t waived_ = 0;
  std::uint64_t duplicates_ = 0;

 private:
  void advance_base() {
    while (received_set_.erase(base_) || waived_set_.erase(base_)) ++base_;
    gap_at_.erase(gap_at_.begin(), gap_at_.lower_bound(base_));
  }

  double tolerance_;
  std::set<SeqNo> received_set_;
  std::set<SeqNo> waived_set_;
  std::uint64_t arrivals_ = 0;
  std::map<SeqNo, std::uint64_t> gap_at_;
};

// Seeded arrival mixes: in-order packets, short jumps, late fills of
// holes (the oldest one included), duplicates at and below the cumulative
// ACK, and jumps of 200-1100 sequence numbers while the live range is
// under 1500 wide, which regrow the ring from empty to 2048 or 4096
// cells. SNACK lists are drawn between arrivals with caps of 1-80.
TEST(SeqTracker, MatchesASetReferenceUnderRandomArrivals) {
  std::uint64_t checks = 0;
  for (double tol : {0.0, 0.02, 0.1, 0.5, 1.0}) {
    for (int threshold : {0, 1, 3, 7}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::mt19937_64 rng(seed * 1000 + static_cast<std::uint64_t>(
                                              threshold * 10 + tol * 100));
        const auto below = [&rng](std::uint64_t n) { return rng() % n; };
        SeqTracker t(tol);
        SetReferenceTracker ref(tol);
        for (int step = 0; step < 2500; ++step) {
          const SeqNo h = ref.horizon_;
          const SeqNo base = ref.base_;
          const SeqNo range = h - base;
          const std::uint64_t mix = below(100);
          SeqNo seq = h;  // in order, also when a branch does not apply
          if (mix < 30) {
            seq = h;
          } else if (mix < 40) {
            seq = h + 1 + below(4);  // short jump
          } else if (mix < 65) {
            seq = base;  // the oldest hole, or in order if there is none
          } else if (mix < 80 && range > 0) {
            seq = base + below(std::min<SeqNo>(range, 48));  // late, low
          } else if (mix < 88 && range > 0) {
            seq = base + below(range);  // late, anywhere in the range
          } else if (mix < 98) {
            seq = base - std::min<SeqNo>(base, below(4));  // duplicate
          } else if (range < 1500) {
            seq = h + 200 + below(901);  // long jump
          }
          ASSERT_EQ(t.receive(seq), ref.receive(seq))
              << "tol=" << tol << " thr=" << threshold << " seed=" << seed
              << " step=" << step << " seq=" << seq;
          if (below(4) == 0) {
            const std::size_t cap = 1 + below(80);
            ASSERT_EQ(t.missing_after_waive(cap, threshold),
                      ref.missing_after_waive(cap, threshold))
                << "tol=" << tol << " thr=" << threshold << " seed=" << seed
                << " step=" << step << " cap=" << cap;
          }
          if (step % 64 == 0) {
            ASSERT_EQ(t.missing(), ref.missing());
          }
          ASSERT_EQ(t.cumulative_ack(), ref.base_);
          ASSERT_EQ(t.horizon(), ref.horizon_);
          ASSERT_EQ(t.received_count(), ref.received_);
          ASSERT_EQ(t.waived_count(), ref.waived_);
          ASSERT_EQ(t.duplicate_count(), ref.duplicates_);
          ++checks;
        }
      }
    }
  }
  EXPECT_EQ(checks, 5u * 4u * 3u * 2500u);
}

TEST(SeqTracker, InOrderAdvancesBase) {
  SeqTracker t;
  for (SeqNo s = 0; s < 5; ++s) EXPECT_TRUE(t.receive(s));
  EXPECT_EQ(t.cumulative_ack(), 5u);
  EXPECT_EQ(t.received_count(), 5u);
  EXPECT_TRUE(t.missing().empty());
}

TEST(SeqTracker, GapHoldsBase) {
  SeqTracker t;
  t.receive(0);
  t.receive(2);
  EXPECT_EQ(t.cumulative_ack(), 1u);
  EXPECT_EQ(t.missing(), (std::vector<SeqNo>{1}));
  t.receive(1);
  EXPECT_EQ(t.cumulative_ack(), 3u);
}

TEST(SeqTracker, DuplicatesCounted) {
  SeqTracker t;
  t.receive(0);
  EXPECT_FALSE(t.receive(0));
  EXPECT_EQ(t.duplicate_count(), 1u);
  EXPECT_EQ(t.received_count(), 1u);
}

TEST(SeqTracker, RejectsBadTolerance) {
  EXPECT_THROW(SeqTracker(-0.1), std::invalid_argument);
  EXPECT_THROW(SeqTracker(1.1), std::invalid_argument);
}

TEST(SeqTracker, ZeroToleranceNeverWaives) {
  SeqTracker t(0.0);
  t.receive(0);
  t.receive(5);
  const auto missing = t.missing_after_waive(100);
  EXPECT_EQ(missing.size(), 4u);
  EXPECT_EQ(t.waived_count(), 0u);
}

TEST(SeqTracker, ToleranceWaivesWithinQuota) {
  SeqTracker t(0.10);
  // 18 received, 2 holes: waiving both keeps the waived share at 10%.
  for (SeqNo s = 0; s < 20; ++s)
    if (s != 4 && s != 13) t.receive(s);
  const auto missing = t.missing_after_waive(100);
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(t.waived_count(), 2u);
  EXPECT_EQ(t.cumulative_ack(), 20u);  // waived seqs advance the base
}

TEST(SeqTracker, QuotaExhaustedRequestsRest) {
  SeqTracker t(0.10);
  // 10 received, 5 holes: only ~1 can be waived at 10%.
  for (SeqNo s = 0; s < 15; ++s)
    if (s % 3 != 1) t.receive(s);
  const auto missing = t.missing_after_waive(100);
  EXPECT_GE(missing.size(), 4u);
  EXPECT_LE(t.waived_count(), 1u);
}

TEST(SeqTracker, WaivedFractionNeverExceedsTolerance) {
  for (double tol : {0.0, 0.05, 0.1, 0.2, 0.5}) {
    SeqTracker t(tol);
    // Every 4th packet missing.
    for (SeqNo s = 0; s < 400; ++s)
      if (s % 4 != 0) t.receive(s);
    t.missing_after_waive(1000);
    const double total =
        static_cast<double>(t.received_count() + t.waived_count());
    if (total > 0) {
      EXPECT_LE(static_cast<double>(t.waived_count()) / total, tol + 1e-9)
          << "tol=" << tol;
    }
  }
}

TEST(SeqTracker, MaxCountCapsSnackList) {
  SeqTracker t;
  t.receive(100);  // 100 holes below
  const auto missing = t.missing_after_waive(16);
  EXPECT_EQ(missing.size(), 16u);
  EXPECT_EQ(missing.front(), 0u);
}

TEST(SeqTracker, WaivedSeqTreatedAsDuplicateOnLateArrival) {
  SeqTracker t(0.5);
  for (SeqNo s = 0; s < 10; ++s)
    if (s != 3) t.receive(s);
  t.missing_after_waive(100);  // waives 3
  EXPECT_EQ(t.waived_count(), 1u);
  EXPECT_EQ(t.cumulative_ack(), 10u);
  EXPECT_FALSE(t.receive(3));  // arrives late: duplicate, not fresh
}

TEST(SeqTracker, HorizonTracksMax) {
  SeqTracker t;
  t.receive(7);
  EXPECT_EQ(t.horizon(), 8u);
  t.receive(3);
  EXPECT_EQ(t.horizon(), 8u);
}

TEST(SeqTracker, MissingAfterWaiveIsIdempotentWhenNothingChanges) {
  SeqTracker t(0.0);
  t.receive(0);
  t.receive(3);
  const auto a = t.missing_after_waive(10);
  const auto b = t.missing_after_waive(10);
  EXPECT_EQ(a, b);
}

// --- reorder gating (in-flight packets must not be requested) ---

TEST(SeqTrackerReorder, FreshGapIsNotRequestableUnderThreshold) {
  SeqTracker t(0.0);
  t.receive(0);
  t.receive(2);  // gap at 1, noticed by this arrival
  // Only 0 later arrivals since the gap appeared: K=3 hides it.
  EXPECT_TRUE(t.missing_after_waive(10, 3).empty());
  // K=0 (quiet-flow bypass) exposes it.
  EXPECT_EQ(t.missing_after_waive(10, 0), (std::vector<SeqNo>{1}));
}

TEST(SeqTrackerReorder, GapBecomesRequestableAfterKArrivals) {
  SeqTracker t(0.0);
  t.receive(0);
  t.receive(2);  // gap at 1
  t.receive(3);
  EXPECT_TRUE(t.missing_after_waive(10, 3).empty());  // 1 later arrival
  t.receive(4);
  EXPECT_TRUE(t.missing_after_waive(10, 3).empty());  // 2 later arrivals
  t.receive(5);
  EXPECT_EQ(t.missing_after_waive(10, 3), (std::vector<SeqNo>{1}));
}

TEST(SeqTrackerReorder, LateArrivalClearsGapBeforeThreshold) {
  SeqTracker t(0.0);
  t.receive(0);
  t.receive(2);
  t.receive(1);  // in-flight packet shows up: no longer a gap
  t.receive(3);
  t.receive(4);
  t.receive(5);
  EXPECT_TRUE(t.missing_after_waive(10, 3).empty());
  EXPECT_EQ(t.cumulative_ack(), 6u);
}

TEST(SeqTrackerReorder, WaiveQuotaOnlyConsultedForMatureGaps) {
  SeqTracker t(1.0);  // tolerate everything
  t.receive(0);
  t.receive(2);  // fresh gap at 1
  // Under threshold the gap is neither requested NOR waived yet.
  EXPECT_TRUE(t.missing_after_waive(10, 3).empty());
  EXPECT_EQ(t.waived_count(), 0u);
  t.receive(3);
  t.receive(4);
  t.receive(5);
  EXPECT_TRUE(t.missing_after_waive(10, 3).empty());  // now waived
  EXPECT_EQ(t.waived_count(), 1u);
}

TEST(SeqTrackerReorder, MultiPacketJumpStampsAllGaps) {
  SeqTracker t(0.0);
  t.receive(5);  // gaps 0..4 all noticed at once
  t.receive(6);
  t.receive(7);
  t.receive(8);  // 3 arrivals after the jump
  const auto m = t.missing_after_waive(10, 3);
  EXPECT_EQ(m, (std::vector<SeqNo>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace jtp::core
