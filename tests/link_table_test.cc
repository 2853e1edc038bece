#include "phy/link_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "sim/random.h"

namespace jtp::phy {
namespace {

TEST(PackedLinkTable, InsertThenFind) {
  PackedLinkTable<int> t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(42), nullptr);
  int& v = t.find_or_create(42, [] { return 7; });
  EXPECT_EQ(v, 7);
  EXPECT_EQ(t.size(), 1u);
  ASSERT_NE(t.find(42), nullptr);
  EXPECT_EQ(*t.find(42), 7);
  // Second sight: the factory must not run again.
  int calls = 0;
  int& again = t.find_or_create(42, [&] {
    ++calls;
    return -1;
  });
  EXPECT_EQ(again, 7);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(t.stats().inserts, 1u);
}

TEST(PackedLinkTable, MatchesReferenceMapUnderChurn) {
  PackedLinkTable<std::uint64_t> t;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  sim::Rng rng(3);
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = rng.integer(512);  // dense keyspace: collisions
    if (rng.integer(2) == 0) {
      const std::uint64_t val = key * 1000003u;
      t.find_or_create(key, [&] { return val; });
      ref.emplace(key, val);
    } else {
      const auto* got = t.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
      if (got) {
        EXPECT_EQ(*got, it->second);
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
}

TEST(PackedLinkTable, GrowsPastReserveAndRehashes) {
  PackedLinkTable<std::uint64_t> t(64);  // minimum reserve
  const std::size_t buckets_before = t.bucket_count();
  for (std::uint64_t k = 0; k < 4096; ++k)
    t.find_or_create(k, [&] { return k; });
  EXPECT_EQ(t.size(), 4096u);
  EXPECT_GT(t.bucket_count(), buckets_before);
  EXPECT_GT(t.stats().rehashes, 0u);
  // Load factor bound survived every doubling.
  EXPECT_LE(10 * t.size(), 7 * t.bucket_count());
  for (std::uint64_t k = 0; k < 4096; ++k) {
    ASSERT_NE(t.find(k), nullptr);
    EXPECT_EQ(*t.find(k), k);
  }
}

TEST(PackedLinkTable, ReserveSizedTableNeverRehashes) {
  PackedLinkTable<std::uint64_t> t(4096);
  for (std::uint64_t k = 0; k < 4096; ++k)
    t.find_or_create(k, [&] { return k; });
  EXPECT_EQ(t.stats().rehashes, 0u);
}

TEST(PackedLinkTable, ProbeHighWaterStaysSmallAtPlannedLoad) {
  PackedLinkTable<std::uint64_t> t(1600);
  sim::Rng rng(9);
  for (int i = 0; i < 1600; ++i) {
    const std::uint64_t key =
        (rng.integer(400) << 32) | rng.integer(400);
    t.find_or_create(key, [&] { return key; });
  }
  // At load <= 0.7 with a well-mixed hash, linear-probe runs are short;
  // a high-water anywhere near the bucket count means clustering.
  EXPECT_LT(t.stats().probe_hw, 64u);
  EXPECT_EQ(t.stats().rehashes, 0u);
}

}  // namespace
}  // namespace jtp::phy
