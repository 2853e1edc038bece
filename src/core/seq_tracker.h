// Receiver-side sequence bookkeeping with loss-tolerance waiving.
//
// Tracks which sequence numbers have arrived, which are missing, and which
// missing ones the application has agreed to waive under its end-to-end
// loss tolerance (paper §3: the receiver requests retransmission "only for
// those missing packets that are important to the application").
//
// The waive policy is a running quota: a missing packet may be waived iff
// doing so keeps the waived fraction of all packets seen-or-waived at or
// below the tolerance. This is deterministic and keeps delivered data just
// above the application's requirement line (paper Fig. 3(b)).
//
// All three receivers keep their record here: eJTP with its tolerance,
// TCP-SACK and ATP at tolerance 0, where nothing is ever waived and the
// SNACK list is the plain hole list. Only the range [cumulative ACK,
// horizon) is stored, one cell per sequence number in a power-of-two
// ring indexed by seq & (size - 1). The ring starts empty and doubles,
// copying the live range, only when that range outgrows it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace jtp::core {

class SeqTracker {
 public:
  explicit SeqTracker(double loss_tolerance = 0.0);

  // Records an arriving sequence number. Returns true if it was new
  // (not a duplicate, not already waived).
  bool receive(SeqNo seq);

  // Sequence numbers below this are all received or waived.
  SeqNo cumulative_ack() const { return base_; }

  // Highest sequence number received so far + 1 (0 if none).
  SeqNo horizon() const { return horizon_; }

  // Missing sequence numbers in [base_, horizon_) after applying the waive
  // quota: each gap is first considered for waiving; survivors are
  // returned (these go into the SNACK). Waived seqs advance the base as if
  // received. `max_count` caps the returned list (ACK header budget).
  //
  // `reorder_threshold` guards against requesting packets that are merely
  // still in flight: a gap is eligible only after at least that many
  // later packets have arrived since it appeared (0 = consider all gaps —
  // used for tail losses when the flow has gone quiet). Ineligible gaps
  // are neither waived nor returned.
  std::vector<SeqNo> missing_after_waive(std::size_t max_count,
                                         int reorder_threshold = 0);

  // Allocation-free variant for the feedback hot path: fills a
  // caller-owned list (cleared first), any type with clear, size and
  // push_back — a reused std::vector, or an ACK's SNACK list in place.
  template <typename Out>
  void missing_after_waive(Out& out, std::size_t max_count,
                           int reorder_threshold = 0);

  // Missing without waiving anything (inspection / full-reliability mode).
  std::vector<SeqNo> missing() const;

  // When `seq` was last named in a SNACK; -infinity until it is. Valid
  // for seq in [cumulative_ack(), horizon()).
  double& requested_at(SeqNo seq) { return cell(seq).requested_at; }

  std::uint64_t received_count() const { return received_; }
  std::uint64_t waived_count() const { return waived_count_; }
  std::uint64_t duplicate_count() const { return duplicates_; }
  double loss_tolerance() const { return tolerance_; }

 private:
  enum class State : std::uint8_t { kMissing, kReceived, kWaived };
  struct Cell {
    std::uint64_t gap_noticed_at;  // arrivals_ when the gap appeared
    double requested_at;
    State state;
  };

  Cell& cell(SeqNo seq) { return ring_[seq & (ring_.size() - 1)]; }
  const Cell& cell(SeqNo seq) const {
    return ring_[seq & (ring_.size() - 1)];
  }
  // Waiving one more keeps waived/(received+waived+1) <= tolerance.
  bool can_waive_one() const {
    const double total = static_cast<double>(received_ + waived_count_ + 1);
    return (static_cast<double>(waived_count_) + 1.0) <= tolerance_ * total;
  }
  void advance_base() {
    while (base_ < horizon_ && cell(base_).state != State::kMissing) ++base_;
  }
  void grow(SeqNo live);

  double tolerance_;
  SeqNo base_ = 0;     // all < base_ received or waived
  SeqNo horizon_ = 0;  // max received + 1
  std::vector<Cell> ring_;      // [base_, horizon_); size 0 or a power of 2
  std::uint64_t arrivals_ = 0;  // fresh receptions, for reorder gating
  std::uint64_t received_ = 0;
  std::uint64_t waived_count_ = 0;
  std::uint64_t duplicates_ = 0;
};

template <typename Out>
void SeqTracker::missing_after_waive(Out& out, std::size_t max_count,
                                     int reorder_threshold) {
  out.clear();  // capacity retained: a reused buffer never reallocates
  for (SeqNo s = base_; s < horizon_ && out.size() < max_count; ++s) {
    Cell& c = cell(s);
    if (c.state != State::kMissing) continue;
    // Too few later arrivals: the packet may simply still be in flight.
    if (reorder_threshold > 0 &&
        arrivals_ - c.gap_noticed_at <
            static_cast<std::uint64_t>(reorder_threshold))
      continue;
    if (can_waive_one()) {
      c.state = State::kWaived;
      ++waived_count_;
      continue;
    }
    out.push_back(s);
  }
  advance_base();
}

}  // namespace jtp::core
