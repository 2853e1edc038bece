// In-network packet cache (paper §4).
//
// Every intermediate node keeps an LRU cache of traversing data packets so
// that a SNACK can be satisfied by the farthest-downstream node that still
// holds the packet, avoiding an end-to-end retransmission. "Recently
// manipulated" covers both insertion and a retransmission hit, so packets
// under active repair stay resident. Capacity is shared across flows.
//
// Storage: the first insert reserves a slab and allocates a chained hash
// index (buckets sized 2× capacity, rounded to a power of two), so a cache
// never inserted into holds nothing. While the cache is below capacity an
// insert appends an entry; once it is full, an insert reuses the slot of
// the entry it evicts. The slab therefore holds exactly size() entries,
// and a relay that only ever sees a few packets never touches the rest of
// its reservation. An intrusive doubly-linked LRU runs over slab indices.
// After the first insert, nothing allocates and no entry ever moves;
// cached packets are bare PacketHeaders (only data packets are cacheable,
// and data packets carry no ack body).
//
// Bucket key: seq plus a per-flow offset (splitmix64 of the flow id), times
// an odd constant, masked to the bucket count. The product's low bits
// depend only on the low bits of seq + offset, so one flow's seqs never
// share a bucket within any window of bucket-count consecutive seqs, and
// each flow's window starts at its own pseudo-random offset. A key that
// ignores the flow would send every short flow's seqs 0..49 to the same
// ~50 buckets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/packet.h"
#include "core/types.h"
#include "sim/random.h"

namespace jtp::core {

class PacketCache {
 public:
  explicit PacketCache(std::size_t capacity_packets);

  // Inserts (or refreshes) a copy of `p`. Duplicate (flow, seq) overwrites
  // and counts as a manipulation. Source/cache retransmission markers are
  // stripped: a cached copy is just a copy. Non-data packets are ignored.
  void insert(const PacketHeader& p);

  // Looks up (flow, seq); on hit, the entry is refreshed (LRU touch) and
  // a pointer to the cached header is returned (valid until the next
  // mutating call). Returns nullptr on miss.
  const PacketHeader* lookup(FlowId flow, SeqNo seq);

  // Non-refreshing probe, for tests/inspection.
  bool contains(FlowId flow, SeqNo seq) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  // Counters for the experiment harness.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t insertions() const { return insertions_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    PacketHeader packet;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    std::uint32_t chain_next = kNil;  // hash chain
  };

  std::size_t bucket_of(FlowId flow, SeqNo seq) const {
    return static_cast<std::size_t>((seq + sim::splitmix64(flow)) *
                                    0x9e3779b97f4a7c15ULL) &
           bucket_mask_;
  }

  std::uint32_t find(std::size_t bucket, FlowId flow, SeqNo seq) const;
  void lru_unlink(std::uint32_t idx);
  void lru_push_front(std::uint32_t idx);
  void chain_remove(std::uint32_t idx);

  std::size_t capacity_;
  std::vector<Entry> entries_;          // slab, reserved to capacity
  std::vector<std::uint32_t> buckets_;  // chain heads; empty until an insert
  std::size_t bucket_mask_ = 0;
  std::uint32_t lru_head_ = kNil;  // most recently manipulated
  std::uint32_t lru_tail_ = kNil;  // eviction victim

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t insertions_ = 0;
};

}  // namespace jtp::core
