// Tests for the in-network LRU packet cache (paper §4).
#include "core/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

namespace jtp::core {
namespace {

Packet data(FlowId flow, SeqNo seq) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.seq = seq;
  return p;
}

TEST(PacketCache, RejectsZeroCapacity) {
  EXPECT_THROW(PacketCache(0), std::invalid_argument);
}

TEST(PacketCache, InsertThenLookup) {
  PacketCache c(10);
  c.insert(data(1, 5));
  const auto hit = c.lookup(1, 5);
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->seq, 5u);
  EXPECT_EQ(hit->flow, 1u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(PacketCache, MissReturnsNullopt) {
  // A cache never inserted into holds no index yet: every probe misses and
  // counts, and the first insert then serves hits.
  PacketCache c(10);
  EXPECT_EQ(c.lookup(1, 5), nullptr);
  EXPECT_FALSE(c.contains(1, 5));
  EXPECT_EQ(c.misses(), 1u);
  c.insert(data(1, 5));
  EXPECT_TRUE(c.contains(1, 5));
  EXPECT_NE(c.lookup(1, 5), nullptr);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.lookup(1, 6), nullptr);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(PacketCache, IgnoresAcks) {
  PacketCache c(10);
  Packet ack;
  ack.type = PacketType::kAck;
  ack.flow = 1;
  ack.seq = 7;
  c.insert(ack);
  EXPECT_EQ(c.size(), 0u);
}

TEST(PacketCache, FlowsAreDistinct) {
  PacketCache c(10);
  c.insert(data(1, 5));
  c.insert(data(2, 5));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_NE(c.lookup(1, 5), nullptr);
  EXPECT_NE(c.lookup(2, 5), nullptr);
}

TEST(PacketCache, EvictsLeastRecentlyManipulated) {
  PacketCache c(3);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  c.insert(data(1, 2));
  c.insert(data(1, 3));  // evicts seq 0
  EXPECT_FALSE(c.contains(1, 0));
  EXPECT_TRUE(c.contains(1, 1));
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(PacketCache, LookupRefreshesLru) {
  PacketCache c(3);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  c.insert(data(1, 2));
  // Touch seq 0: it becomes most recent; inserting evicts seq 1 instead.
  ASSERT_NE(c.lookup(1, 0), nullptr);
  c.insert(data(1, 3));
  EXPECT_TRUE(c.contains(1, 0));
  EXPECT_FALSE(c.contains(1, 1));
}

TEST(PacketCache, ReinsertRefreshesLru) {
  PacketCache c(3);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  c.insert(data(1, 2));
  c.insert(data(1, 0));  // duplicate: refresh, no growth
  EXPECT_EQ(c.size(), 3u);
  c.insert(data(1, 3));
  EXPECT_TRUE(c.contains(1, 0));
  EXPECT_FALSE(c.contains(1, 1));
}

TEST(PacketCache, ContainsDoesNotRefresh) {
  PacketCache c(2);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  EXPECT_TRUE(c.contains(1, 0));  // probe only
  c.insert(data(1, 2));           // should evict 0 (not refreshed)
  EXPECT_FALSE(c.contains(1, 0));
}

TEST(PacketCache, CachedCopyStripsRetransmissionMarkers) {
  PacketCache c(4);
  Packet p = data(1, 9);
  p.is_source_retransmission = true;
  p.is_cache_retransmission = true;
  c.insert(p);
  const auto hit = c.lookup(1, 9);
  ASSERT_TRUE(hit != nullptr);
  EXPECT_FALSE(hit->is_source_retransmission);
  EXPECT_FALSE(hit->is_cache_retransmission);
}

TEST(PacketCache, CapacityOneWorks) {
  PacketCache c(1);
  c.insert(data(1, 0));
  c.insert(data(1, 1));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.contains(1, 1));
  EXPECT_FALSE(c.contains(1, 0));
}

TEST(PacketCache, StressManyFlows) {
  PacketCache c(100);
  for (FlowId f = 0; f < 20; ++f)
    for (SeqNo s = 0; s < 50; ++s) c.insert(data(f, s));
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.insertions(), 1000u);
  EXPECT_EQ(c.evictions(), 900u);
  // The most recent 100 inserts survive.
  for (SeqNo s = 0; s < 50; ++s) EXPECT_TRUE(c.contains(19, s));
  for (SeqNo s = 0; s < 50; ++s) EXPECT_TRUE(c.contains(18, s));
  EXPECT_FALSE(c.contains(17, 49));
}

// A plain LRU over (flow, seq) keys with the cache's documented
// semantics: insert and lookup hits move a key to the front, contains does
// not, a duplicate insert overwrites the copy, a miss into a full cache
// evicts the back, and non-data packets are ignored. The copy is tracked
// by its payload size.
class ReferenceLru {
 public:
  using Key = std::pair<FlowId, SeqNo>;

  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  void insert(const Packet& p) {
    if (!p.is_data()) return;
    ++insertions;
    const Key k{p.flow, p.seq};
    if (auto it = where_.find(k); it != where_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.at);
      it->second.payload_bytes = p.payload_bytes;
      return;
    }
    if (lru_.size() == capacity_) {
      where_.erase(lru_.back());
      lru_.pop_back();
      ++evictions;
    }
    lru_.push_front(k);
    where_[k] = {lru_.begin(), p.payload_bytes};
  }

  // The cached copy's payload size on a hit, nullopt on a miss.
  std::optional<std::uint32_t> lookup(const Key& k) {
    const auto it = where_.find(k);
    if (it == where_.end()) {
      ++misses;
      return std::nullopt;
    }
    ++hits;
    lru_.splice(lru_.begin(), lru_, it->second.at);
    return it->second.payload_bytes;
  }

  bool contains(const Key& k) const { return where_.count(k) != 0; }
  std::size_t size() const { return lru_.size(); }

  std::uint64_t hits = 0, misses = 0, evictions = 0, insertions = 0;

 private:
  struct Slot {
    std::list<Key>::iterator at;
    std::uint32_t payload_bytes;
  };
  std::size_t capacity_;
  std::list<Key> lru_;
  std::map<Key, Slot> where_;
};

// 64 flows sharing seqs 0..49 (the bursty relay pattern that a flow-blind
// bucket key piles into the same buckets), in a seeded random mix of
// inserts, duplicate re-inserts, ACK inserts, lookups and probes. The
// capacities cover a single slot, a cache that fills within a few hundred
// operations and then recycles victims' slots, and one that appends new
// slab entries for its first few thousand operations before it fills.
TEST(PacketCache, MatchesReferenceLruOverManySharedSeqFlows) {
  constexpr FlowId kFlows = 64;
  constexpr SeqNo kSeqs = 50;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{37},
                                     std::size_t{1000}}) {
    SCOPED_TRACE(capacity);
    PacketCache c(capacity);
    ReferenceLru ref(capacity);
    std::mt19937_64 rng(0x5eed + capacity);
    std::vector<ReferenceLru::Key> recent;  // keys inserted lately
    const auto any_key = [&] {
      return ReferenceLru::Key{static_cast<FlowId>(rng() % kFlows),
                               static_cast<SeqNo>(rng() % kSeqs)};
    };
    // Half the time a recently inserted key, so duplicates and hits occur
    // at every capacity; otherwise any of the 3200 keys.
    const auto pick = [&] {
      if (!recent.empty() && rng() % 2 == 0)
        return recent[rng() % recent.size()];
      return any_key();
    };
    for (int op = 0; op < 20000; ++op) {
      SCOPED_TRACE(op);
      const std::uint64_t kind = rng() % 16;
      if (kind < 7) {
        const ReferenceLru::Key k = kind == 0 ? pick() : any_key();
        Packet p = data(k.first, k.second);
        p.payload_bytes = static_cast<std::uint32_t>(op);  // tags the copy
        if (kind == 1) p.type = PacketType::kAck;
        c.insert(p);
        ref.insert(p);
        if (p.is_data()) {
          if (recent.size() < 16)
            recent.push_back(k);
          else
            recent[rng() % recent.size()] = k;
        }
      } else if (kind < 13) {
        const ReferenceLru::Key k = pick();
        const PacketHeader* hit = c.lookup(k.first, k.second);
        const std::optional<std::uint32_t> want = ref.lookup(k);
        ASSERT_EQ(hit != nullptr, want.has_value());
        if (hit != nullptr) {
          EXPECT_EQ(hit->flow, k.first);
          EXPECT_EQ(hit->seq, k.second);
          EXPECT_EQ(hit->payload_bytes, *want);
        }
      } else {
        const ReferenceLru::Key k = pick();
        ASSERT_EQ(c.contains(k.first, k.second), ref.contains(k));
      }
      ASSERT_EQ(c.size(), ref.size());
      ASSERT_EQ(c.hits(), ref.hits);
      ASSERT_EQ(c.misses(), ref.misses);
      ASSERT_EQ(c.evictions(), ref.evictions);
      ASSERT_EQ(c.insertions(), ref.insertions);
    }
    for (FlowId f = 0; f < kFlows; ++f)
      for (SeqNo s = 0; s < kSeqs; ++s)
        ASSERT_EQ(c.contains(f, s), ref.contains({f, s})) << f << "/" << s;
  }
}

}  // namespace
}  // namespace jtp::core
