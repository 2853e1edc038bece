#include "core/seq_tracker.h"

#include <limits>
#include <stdexcept>

namespace jtp::core {

SeqTracker::SeqTracker(double loss_tolerance) : tolerance_(loss_tolerance) {
  if (loss_tolerance < 0.0 || loss_tolerance > 1.0)
    throw std::invalid_argument("SeqTracker: tolerance outside [0,1]");
}

bool SeqTracker::receive(SeqNo seq) {
  if (seq < base_ || (seq < horizon_ && cell(seq).state != State::kMissing)) {
    ++duplicates_;
    return false;
  }
  ++arrivals_;
  if (seq >= horizon_) {
    if (seq - base_ >= ring_.size()) grow(seq + 1 - base_);
    // Seqs skipped over by this arrival become gaps, stamped with the
    // current arrival count so reordering tolerance can be measured.
    for (; horizon_ <= seq; ++horizon_)
      cell(horizon_) = {arrivals_, -std::numeric_limits<double>::infinity(),
                        State::kMissing};
  }
  cell(seq).state = State::kReceived;
  ++received_;
  advance_base();
  return true;
}

void SeqTracker::grow(SeqNo live) {
  std::size_t size = ring_.empty() ? 16 : 2 * ring_.size();
  while (size < live) size *= 2;
  std::vector<Cell> ring(size);
  for (SeqNo s = base_; s < horizon_; ++s) ring[s & (size - 1)] = cell(s);
  ring_.swap(ring);
}

std::vector<SeqNo> SeqTracker::missing_after_waive(std::size_t max_count,
                                                   int reorder_threshold) {
  std::vector<SeqNo> out;
  missing_after_waive(out, max_count, reorder_threshold);
  return out;
}

std::vector<SeqNo> SeqTracker::missing() const {
  std::vector<SeqNo> out;
  for (SeqNo s = base_; s < horizon_; ++s)
    if (cell(s).state == State::kMissing) out.push_back(s);
  return out;
}

}  // namespace jtp::core
