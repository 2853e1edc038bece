#include "core/cache.h"

#include <cassert>
#include <stdexcept>

namespace jtp::core {

PacketCache::PacketCache(std::size_t capacity_packets)
    : capacity_(capacity_packets) {
  if (capacity_packets == 0)
    throw std::invalid_argument("PacketCache: capacity must be >= 1");
}

std::uint32_t PacketCache::find(std::size_t bucket, FlowId flow,
                                SeqNo seq) const {
  for (std::uint32_t i = buckets_[bucket]; i != kNil;
       i = entries_[i].chain_next) {
    const PacketHeader& p = entries_[i].packet;
    if (p.flow == flow && p.seq == seq) return i;
  }
  return kNil;
}

void PacketCache::lru_unlink(std::uint32_t idx) {
  Entry& e = entries_[idx];
  if (e.lru_prev != kNil)
    entries_[e.lru_prev].lru_next = e.lru_next;
  else
    lru_head_ = e.lru_next;
  if (e.lru_next != kNil)
    entries_[e.lru_next].lru_prev = e.lru_prev;
  else
    lru_tail_ = e.lru_prev;
  e.lru_prev = e.lru_next = kNil;
}

void PacketCache::lru_push_front(std::uint32_t idx) {
  Entry& e = entries_[idx];
  e.lru_prev = kNil;
  e.lru_next = lru_head_;
  if (lru_head_ != kNil) entries_[lru_head_].lru_prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
}

void PacketCache::chain_remove(std::uint32_t idx) {
  const Entry& e = entries_[idx];
  std::uint32_t* link = &buckets_[bucket_of(e.packet.flow, e.packet.seq)];
  while (*link != idx) link = &entries_[*link].chain_next;
  *link = e.chain_next;
}

void PacketCache::insert(const PacketHeader& p) {
  if (!p.is_data()) return;  // only data packets are cacheable
  if (buckets_.empty()) {
    entries_.reserve(capacity_);  // pages become resident as entries fill
    std::size_t nbuckets = 1;
    while (nbuckets < 2 * capacity_) nbuckets <<= 1;
    buckets_.assign(nbuckets, kNil);
    bucket_mask_ = nbuckets - 1;
  }
  ++insertions_;
  const std::size_t b = bucket_of(p.flow, p.seq);
  std::uint32_t idx = find(b, p.flow, p.seq);
  if (idx != kNil) {
    lru_unlink(idx);
  } else {
    if (entries_.size() < capacity_) {
      assert(entries_.size() < entries_.capacity() &&
             "slab grew past its reservation");
      idx = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      idx = lru_tail_;  // evict; the new packet takes the victim's slot
      chain_remove(idx);
      lru_unlink(idx);
      ++evictions_;
    }
    entries_[idx].chain_next = buckets_[b];
    buckets_[b] = idx;
  }
  Entry& e = entries_[idx];
  e.packet = p;
  e.packet.is_source_retransmission = false;
  e.packet.is_cache_retransmission = false;
  lru_push_front(idx);
}

const PacketHeader* PacketCache::lookup(FlowId flow, SeqNo seq) {
  const std::uint32_t idx =
      buckets_.empty() ? kNil : find(bucket_of(flow, seq), flow, seq);
  if (idx == kNil) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_unlink(idx);
  lru_push_front(idx);
  return &entries_[idx].packet;
}

bool PacketCache::contains(FlowId flow, SeqNo seq) const {
  return !buckets_.empty() && find(bucket_of(flow, seq), flow, seq) != kNil;
}

}  // namespace jtp::core
