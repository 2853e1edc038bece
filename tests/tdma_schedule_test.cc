#include "mac/tdma_schedule.h"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "mac/slotted.h"
#include "phy/topology.h"
#include "sim/random.h"

namespace jtp::mac {
namespace {

TEST(TdmaSchedule, SlotArithmetic) {
  TdmaSchedule s(4, 0.01, 1);
  EXPECT_EQ(s.slot_at(0.0), 0u);
  EXPECT_EQ(s.slot_at(0.0099), 0u);
  EXPECT_EQ(s.slot_at(0.01), 1u);
  EXPECT_DOUBLE_EQ(s.slot_start(7), 0.07);
  EXPECT_DOUBLE_EQ(s.frame_duration(), 0.04);
}

TEST(TdmaSchedule, EveryFrameIsAPermutation) {
  TdmaSchedule s(7, 0.01, 42);
  for (std::uint64_t frame = 0; frame < 50; ++frame) {
    std::set<core::NodeId> owners;
    for (std::uint64_t i = 0; i < 7; ++i)
      owners.insert(s.owner(frame * 7 + i));
    EXPECT_EQ(owners.size(), 7u) << "frame " << frame;
  }
}

TEST(TdmaSchedule, CollisionFreeByConstruction) {
  // One owner per slot is the definition; verify owner() is a function.
  TdmaSchedule s(5, 0.02, 9);
  for (std::uint64_t slot = 0; slot < 200; ++slot)
    EXPECT_EQ(s.owner(slot), s.owner(slot));
}

TEST(TdmaSchedule, PermutationVariesAcrossFrames) {
  TdmaSchedule s(6, 0.01, 3);
  int identical = 0;
  for (std::uint64_t f = 0; f + 1 < 40; ++f) {
    bool same = true;
    for (std::uint64_t i = 0; i < 6; ++i)
      if (s.owner(f * 6 + i) != s.owner((f + 1) * 6 + i)) same = false;
    if (same) ++identical;
  }
  EXPECT_LT(identical, 3);
}

TEST(TdmaSchedule, NextOwnedSlotIsOwnedAndNotBeforeT) {
  TdmaSchedule s(5, 0.01, 7);
  for (core::NodeId n = 0; n < 5; ++n) {
    for (double t : {0.0, 0.003, 0.049, 1.234, 10.0}) {
      const auto slot = s.next_owned_slot_from(n, s.first_slot_from(t));
      EXPECT_EQ(s.owner(slot), n);
      EXPECT_GE(s.slot_start(slot), t);
    }
  }
}

TEST(TdmaSchedule, NextOwnedSlotIsTheFirstSuch) {
  TdmaSchedule s(4, 0.01, 11);
  const core::NodeId n = 2;
  const auto slot = s.next_owned_slot_from(n, s.first_slot_from(0.0));
  for (std::uint64_t earlier = 0; earlier < slot; ++earlier)
    EXPECT_NE(s.owner(earlier), n);
}

TEST(TdmaSchedule, FairShareOverManyFrames) {
  TdmaSchedule s(8, 0.01, 13);
  std::vector<int> counts(8, 0);
  for (std::uint64_t slot = 0; slot < 8 * 100; ++slot) ++counts[s.owner(slot)];
  for (int c : counts) EXPECT_EQ(c, 100);
}

TEST(TdmaSchedule, NodeCapacityOnePacketPerFrame) {
  TdmaSchedule s(10, 0.035, 1);
  EXPECT_NEAR(s.node_capacity_pps(), 1.0 / 0.35, 1e-12);
}

TEST(TdmaSchedule, DifferentSeedsDifferentSchedules) {
  TdmaSchedule a(6, 0.01, 1), b(6, 0.01, 2);
  int differ = 0;
  for (std::uint64_t slot = 0; slot < 120; ++slot)
    if (a.owner(slot) != b.owner(slot)) ++differ;
  EXPECT_GT(differ, 30);
}

TEST(TdmaSchedule, RejectsBadArgs) {
  EXPECT_THROW(TdmaSchedule(0, 0.01, 1), std::invalid_argument);
  EXPECT_THROW(TdmaSchedule(3, 0.0, 1), std::invalid_argument);
  TdmaSchedule s(3, 0.01, 1);
  EXPECT_THROW(s.next_owned_slot_from(5, s.first_slot_from(0.0)),
               std::invalid_argument);
  EXPECT_THROW(s.slot_at(-1.0), std::invalid_argument);
}

TEST(TdmaSchedule, OwnersFollowTheKeyedDrawInAnyLookupOrder) {
  // The reference draw: Fisher–Yates keyed by splitmix64(seed ^
  // splitmix64(frame)). Lookups hop between frames out of order, and
  // owner() and next_owned_slot_from() share one schedule, so a cached
  // frame must never answer for another frame.
  constexpr std::uint64_t kSeed = 77;
  for (const std::size_t n : {1, 9, 1000}) {
    TdmaSchedule s(n, 0.01, kSeed);
    auto reference = [&](std::uint64_t frame) {
      std::vector<core::NodeId> perm(n);
      std::iota(perm.begin(), perm.end(), core::NodeId{0});
      std::uint64_t h = sim::splitmix64(kSeed ^ sim::splitmix64(frame));
      for (std::size_t i = n - 1; i > 0; --i) {
        h = sim::splitmix64(h);
        std::swap(perm[i], perm[h % (i + 1)]);
      }
      return perm;
    };
    auto index_of = [&](const std::vector<core::NodeId>& perm) {
      std::vector<std::uint64_t> idx(n);
      for (std::size_t i = 0; i < n; ++i) idx[perm[i]] = i;
      return idx;
    };
    for (const std::uint64_t frame :
         {5ULL, 0ULL, 6ULL, 5ULL, 12ULL, 3ULL, 13ULL, 12ULL}) {
      const auto perm = reference(frame);
      const auto here = index_of(perm), next = index_of(reference(frame + 1));
      const std::uint64_t base = frame * n;
      // From offset k, v's slot in this frame counts only if it is not
      // earlier than k; otherwise v's answer is its slot in the next frame.
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(s.owner(base + k), perm[k])
            << "n " << n << " frame " << frame << " slot " << k;
        for (core::NodeId v = 0; v < n; ++v)
          ASSERT_EQ(s.next_owned_slot_from(v, base + k),
                    here[v] >= k ? base + here[v] : base + n + next[v])
              << "n " << n << " frame " << frame << " from " << k
              << " node " << v;
      }
    }
  }
}

TEST(TdmaSchedule, SingleNodeOwnsEverySlot) {
  TdmaSchedule s(1, 0.01, 1);
  for (std::uint64_t slot = 0; slot < 20; ++slot)
    EXPECT_EQ(s.owner(slot), 0u);
}

// Classic TDMA is the identity coloring of the slot schedule: the slot
// permutation over n colors is the node-level draw, slot for slot, and no
// move ever recolors it.
TEST(SlotSchedule, ClassicIsTheNodeLevelDraw) {
  for (const std::size_t n : {1u, 9u, 1000u}) {
    phy::Topology topo = phy::Topology::linear(n, 30.0, 40.0);
    const SlotSchedule classic(topo, 0.01, 7, std::nullopt);
    const TdmaSchedule draw(n, 0.01, 7);
    for (std::uint64_t from = 0; from < 3 * n; ++from)
      for (core::NodeId v = 0; v < n; ++v)
        ASSERT_EQ(classic.next_owned_slot_from(v, from),
                  draw.next_owned_slot_from(v, from))
            << "n " << n << " node " << v << " from " << from;
    EXPECT_DOUBLE_EQ(classic.frame_duration(), draw.frame_duration());

    topo.set_position(0, {1000.0, 1000.0});
    for (core::NodeId v = 0; v < n; ++v) ASSERT_EQ(classic.color_of(v), v);
    const MacStats st = classic.stats();
    EXPECT_EQ(st.recolors, 0u);
    EXPECT_EQ(st.colors_used, n);
    EXPECT_DOUBLE_EQ(st.reuse_factor, 1.0);
    EXPECT_EQ(classic.coloring_stats().rebuilds, 0u);
  }
}

}  // namespace
}  // namespace jtp::mac
