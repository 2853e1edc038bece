// Packed open-addressed table for per-link PHY state.
//
// The channel keeps lazily-created state per link (fading dwell, loss
// stream), keyed by a packed 64-bit node pair, and looks it up once per
// MAC attempt. Earlier revisions modeled that as unordered_map; at scale the
// map's node-per-entry layout costs an allocation per link and a pointer
// chase per attempt. This table stores values in one contiguous slab
// (reserved up front from the expected link count) and resolves keys
// through a power-of-two bucket array with linear probing — the hot-path
// lookup is one hash, a short probe run over a dense index array, and a
// single slab access.
//
// Layout invariants:
//  - Entries are never removed: a link's state lives for the whole run,
//    so the slab only grows and the bucket array (slot indices, kNil =
//    empty) never holds a tombstone.
//  - References returned by find/find_or_create stay valid only until
//    the next insert (the slab may grow); the channel holds them
//    transiently within one call.
//
// LinkTableStats is the observable contract, mirroring sim::PoolStats and
// routing::RoutingStats: a probe high-water near the bucket count or a
// rehash after construction means the expected-density reserve was wrong.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace jtp::phy {

struct LinkTableStats {
  std::uint64_t lookups = 0;   // find + find_or_create calls
  std::uint64_t inserts = 0;   // slots created (misses that materialized)
  std::uint64_t rehashes = 0;  // bucket-array doublings after construction
  std::uint64_t probe_hw = 0;  // longest single-operation probe run
};

template <typename V>
class PackedLinkTable {
  static_assert(std::is_trivially_copyable_v<V>,
                "PackedLinkTable slots must be trivially copyable");

 public:
  // `expected` sizes the slab and the bucket array so that steady state
  // neither reallocates nor rehashes; 0 means "small" (the testbed and
  // unit-test regime).
  explicit PackedLinkTable(std::size_t expected = 0) {
    if (expected < kMinExpected) expected = kMinExpected;
    slots_.reserve(expected);
    std::size_t b = kMinBuckets;
    // Keep the planned load factor under ~0.7: probe runs stay O(1).
    while (b * kMaxLoadNum < expected * kMaxLoadDen) b <<= 1;
    buckets_.assign(b, kNil);
  }

  std::size_t size() const { return slots_.size(); }
  std::size_t bucket_count() const { return buckets_.size(); }
  const LinkTableStats& stats() const { return stats_; }

  // Pointer to the value for `key`, or nullptr. Valid until next insert.
  V* find(std::uint64_t key) {
    ++stats_.lookups;
    const std::size_t pos = probe(key);
    if (buckets_[pos] == kNil) return nullptr;
    return &slots_[buckets_[pos]].value;
  }

  // The value for `key`, created via `make()` (returning V) on first
  // sight. Reference valid until the next insert.
  template <typename MakeFn>
  V& find_or_create(std::uint64_t key, MakeFn&& make) {
    ++stats_.lookups;
    std::size_t pos = probe(key);
    if (buckets_[pos] != kNil) return slots_[buckets_[pos]].value;
    ++stats_.inserts;
    if ((slots_.size() + 1) * kMaxLoadDen > buckets_.size() * kMaxLoadNum) {
      rehash(buckets_.size() * 2);
      pos = probe(key);
    }
    buckets_[pos] = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{key, make()});
    return slots_.back().value;
  }

 private:
  struct Slot {
    std::uint64_t key;
    V value;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMinExpected = 64;
  static constexpr std::size_t kMinBuckets = 128;  // pow2 > kMinExpected/0.7
  static constexpr std::size_t kMaxLoadNum = 7;    // load <= 7/10
  static constexpr std::size_t kMaxLoadDen = 10;

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(sim::splitmix64(key)) &
           (buckets_.size() - 1);
  }

  // First bucket holding `key`, or the empty bucket that ends its run.
  std::size_t probe(std::uint64_t key) {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t pos = home(key);
    std::uint64_t run = 1;
    while (buckets_[pos] != kNil && slots_[buckets_[pos]].key != key) {
      pos = (pos + 1) & mask;
      ++run;
    }
    if (run > stats_.probe_hw) stats_.probe_hw = run;
    return pos;
  }

  void rehash(std::size_t n_buckets) {
    ++stats_.rehashes;
    std::vector<std::uint32_t> old;
    old.swap(buckets_);
    buckets_.assign(n_buckets, kNil);
    const std::size_t mask = n_buckets - 1;
    for (const std::uint32_t idx : old) {
      if (idx == kNil) continue;
      std::size_t pos = home(slots_[idx].key);
      while (buckets_[pos] != kNil) pos = (pos + 1) & mask;
      buckets_[pos] = idx;
    }
  }

  std::vector<Slot> slots_;            // slab, in insertion order
  std::vector<std::uint32_t> buckets_; // pow2 index array, kNil = empty
  LinkTableStats stats_;
};

}  // namespace jtp::phy
