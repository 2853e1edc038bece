// Unit tests for core::SendWindow, the send side every transport sender
// shares: the outstanding range, the retransmission FIFO and the gates on
// new data.
#include "core/send_window.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

namespace jtp::core {
namespace {

// Sends `n` new sequence numbers.
void send_new(SendWindow& w, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) w.take_new();
}

TEST(SendWindow, OutstandingIsExactlyCumToNext) {
  SendWindow w;
  EXPECT_EQ(w.in_flight(), 0u);
  EXPECT_FALSE(w.outstanding(0));
  send_new(w, 5);
  EXPECT_EQ(w.next_seq(), 5u);
  EXPECT_EQ(w.in_flight(), 5u);
  w.ack_to(2);
  EXPECT_EQ(w.in_flight(), 3u);
  for (SeqNo s = 0; s < 8; ++s)
    EXPECT_EQ(w.outstanding(s), s >= 2 && s < 5) << s;
  w.ack_to(5);
  EXPECT_EQ(w.in_flight(), 0u);
  EXPECT_FALSE(w.outstanding(4));
}

TEST(SendWindow, RequestDedupsAndRefusesSeqsNoLongerOutstanding) {
  SendWindow w;
  send_new(w, 6);
  w.ack_to(2);
  EXPECT_TRUE(w.request(3));
  EXPECT_FALSE(w.request(3));                 // already waits
  EXPECT_FALSE(w.request(3, /*front=*/true));  // at either end
  EXPECT_FALSE(w.request(1));                 // below the cumulative ACK
  EXPECT_FALSE(w.request(6));                 // never sent
  EXPECT_EQ(w.next_rtx(), std::optional<SeqNo>(3));
  EXPECT_EQ(w.next_rtx(), std::nullopt);
  // Taken off the queue, it may be asked for again.
  EXPECT_TRUE(w.request(3));
  EXPECT_EQ(w.next_rtx(), std::optional<SeqNo>(3));
}

TEST(SendWindow, TimeoutQueuesAtTheFrontHolesAtTheBack) {
  SendWindow w;
  send_new(w, 10);
  w.ack_to(2);
  // SNACK/SACK holes and a tail retransmission go to the back, in order.
  EXPECT_TRUE(w.request(5));
  EXPECT_TRUE(w.request(7));
  EXPECT_TRUE(w.request(9));
  // A TCP or BBR timeout puts the oldest outstanding packet first.
  EXPECT_TRUE(w.request(w.cum_ack(), /*front=*/true));
  EXPECT_EQ(w.next_rtx(), std::optional<SeqNo>(2));
  EXPECT_EQ(w.next_rtx(), std::optional<SeqNo>(5));
  EXPECT_EQ(w.next_rtx(), std::optional<SeqNo>(7));
  EXPECT_EQ(w.next_rtx(), std::optional<SeqNo>(9));
  EXPECT_EQ(w.next_rtx(), std::nullopt);
}

TEST(SendWindow, NextRtxSkipsEntriesAcknowledgedMeanwhile) {
  SendWindow w;
  send_new(w, 10);
  EXPECT_TRUE(w.request(1));
  EXPECT_TRUE(w.request(4));
  EXPECT_TRUE(w.request(8));
  w.ack_to(5);  // 1 and 4 arrived while they waited
  EXPECT_EQ(w.next_rtx(), std::optional<SeqNo>(8));
  EXPECT_EQ(w.next_rtx(), std::nullopt);
}

TEST(SendWindow, CapAndBoundedTotalGateNewData) {
  SendWindow w;
  w.set_total(4);
  EXPECT_TRUE(w.has_new());
  EXPECT_TRUE(w.may_send_new(2));
  send_new(w, 2);
  EXPECT_FALSE(w.may_send_new(2));  // two outstanding: at the cap
  EXPECT_TRUE(w.may_send_new(3));
  w.ack_to(1);
  EXPECT_TRUE(w.may_send_new(2));
  send_new(w, 2);
  EXPECT_FALSE(w.has_new());  // all four went out
  EXPECT_FALSE(w.may_send_new(100));
  EXPECT_FALSE(w.finished());
  w.ack_to(4);
  EXPECT_TRUE(w.finished());

  // 0 = unbounded: new data never runs out, and it never finishes.
  SendWindow open;
  send_new(open, 1000);
  open.ack_to(1000);
  EXPECT_TRUE(open.has_new());
  EXPECT_FALSE(open.finished());

  // A cumulative ACK past the send point holds new data back, however
  // far past it is.
  SendWindow ahead;
  send_new(ahead, 2);
  ahead.ack_to(3);
  EXPECT_EQ(ahead.in_flight(), 0u);
  EXPECT_FALSE(ahead.may_send_new(4000));
  ahead.ack_to(std::numeric_limits<SeqNo>::max());
  EXPECT_FALSE(ahead.may_send_new(4000));
}

TEST(SendWindow, AckToNeverMovesBackward) {
  SendWindow w;
  send_new(w, 8);
  EXPECT_EQ(w.ack_to(5), 5u);
  EXPECT_EQ(w.ack_to(3), 0u);  // a stale, reordered ACK
  EXPECT_EQ(w.cum_ack(), 5u);
  EXPECT_EQ(w.ack_to(5), 0u);
  EXPECT_EQ(w.ack_to(7), 2u);
  EXPECT_EQ(w.cum_ack(), 7u);
}

}  // namespace
}  // namespace jtp::core
