// The send side of a transfer, shared by every transport sender.
//
// eJTP, TCP-SACK, ATP and BBR all keep the source's copy the same way:
// new sequence numbers go out in order, and a packet is released only
// when the cumulative ACK passes it. The outstanding set is therefore
// always one range: s is outstanding iff cum_ack() <= s < next_seq(), and
// no per-packet record is kept. Beside the range the window holds the
// retransmission FIFO, in which a sequence number waits at most once;
// entries that the cumulative ACK passes while they wait are skipped when
// they reach the head.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>

#include "core/types.h"

namespace jtp::core {

class SendWindow {
 public:
  // Packets in the transfer; 0 = unbounded (long-lived).
  void set_total(std::uint64_t total) { total_ = total; }

  SeqNo cum_ack() const { return cum_; }
  SeqNo next_seq() const { return next_; }
  bool outstanding(SeqNo s) const { return cum_ <= s && s < next_; }
  std::uint64_t in_flight() const { return next_ > cum_ ? next_ - cum_ : 0; }
  bool finished() const { return total_ != 0 && cum_ >= total_; }

  // The application still holds data that never went out.
  bool has_new() const { return total_ == 0 || next_ < total_; }
  // True when a new sequence number may go out with fewer than `cap`
  // packets outstanding. A cumulative ACK past the send point holds new
  // data back.
  bool may_send_new(std::uint64_t cap) const {
    return has_new() && cum_ <= next_ && next_ - cum_ < cap;
  }
  SeqNo take_new() { return next_++; }

  // Raises the cumulative ACK to `cum` (never lowers it); returns how far
  // it moved.
  std::uint64_t ack_to(SeqNo cum) {
    const SeqNo old = cum_;
    cum_ = std::max(cum_, cum);
    return cum_ - old;
  }

  // Queues outstanding `s` for retransmission: at the back (SNACK/SACK
  // holes, tail loss) or, for a timeout, at the front. False when `s` is
  // not outstanding or already waits.
  bool request(SeqNo s, bool front = false) {
    if (!outstanding(s) ||
        std::find(rtx_.begin(), rtx_.end(), s) != rtx_.end())
      return false;
    if (front)
      rtx_.push_front(s);
    else
      rtx_.push_back(s);
    return true;
  }

  // Takes the first waiting sequence number that is still outstanding.
  std::optional<SeqNo> next_rtx() {
    while (!rtx_.empty()) {
      const SeqNo s = rtx_.front();
      rtx_.pop_front();
      if (outstanding(s)) return s;
    }
    return std::nullopt;
  }

 private:
  std::uint64_t total_ = 0;
  SeqNo cum_ = 0;
  SeqNo next_ = 0;
  std::deque<SeqNo> rtx_;
};

}  // namespace jtp::core
