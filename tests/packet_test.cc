// Tests for packet formats and header sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "core/packet.h"

namespace jtp::core {
namespace {

TEST(Packet, DefaultIsDataWithPrototypeHeaderSizes) {
  Packet p;
  EXPECT_TRUE(p.is_data());
  EXPECT_EQ(p.header_bytes(), kDataHeaderBytes);   // 28 B (§6.1)
  EXPECT_EQ(p.size_bytes(), kDataHeaderBytes + kDefaultPayloadBytes);
  EXPECT_DOUBLE_EQ(p.size_bits(), 8.0 * (28 + 800));
}

TEST(Packet, AckUses200ByteHeader) {
  Packet p;
  p.type = PacketType::kAck;
  p.payload_bytes = 0;
  EXPECT_TRUE(p.is_ack());
  EXPECT_EQ(p.header_bytes(), kAckHeaderBytes);  // 200 B (§6.1)
  EXPECT_EQ(p.size_bytes(), 200u);
}

TEST(Packet, HeaderOverrideForBaselines) {
  Packet p;
  p.header_override_bytes = 40;  // TCP data header
  EXPECT_EQ(p.header_bytes(), 40u);
  p.type = PacketType::kAck;
  p.header_override_bytes = 60;
  EXPECT_EQ(p.header_bytes(), 60u);
}

TEST(Packet, AvailableRateStartsUnstamped) {
  Packet p;
  EXPECT_TRUE(std::isinf(p.available_rate_pps));
}

TEST(Packet, SnackEmptiness) {
  Snack s;
  EXPECT_TRUE(s.empty());
  s.missing.push_back(3);
  EXPECT_FALSE(s.empty());
  s.missing.clear();
  s.locally_recovered.push_back(4);
  EXPECT_FALSE(s.empty());
}

TEST(Bits, ConvertsBytes) {
  EXPECT_DOUBLE_EQ(bits(100), 800.0);
  EXPECT_DOUBLE_EQ(bits(0), 0.0);
}

TEST(AckSlot, EngagesOnAssignmentAndEmplace) {
  Packet p;
  EXPECT_FALSE(p.ack);
  AckHeader h;
  h.cumulative_ack = 12;
  p.ack = std::move(h);
  ASSERT_TRUE(p.ack);
  EXPECT_EQ(p.ack->cumulative_ack, 12u);
  p.ack.reset();
  EXPECT_FALSE(p.ack);
  p.ack.emplace().ack_serial = 5;
  ASSERT_TRUE(p.ack);
  EXPECT_EQ(p.ack->ack_serial, 5u);
}

TEST(AckSlot, MoveDisengagesTheSource) {
  Packet a;
  a.ack.emplace().cumulative_ack = 3;
  Packet b = std::move(a);
  ASSERT_TRUE(b.ack);
  EXPECT_EQ(b.ack->cumulative_ack, 3u);
  EXPECT_FALSE(a.ack);  // moved-from packet no longer claims an ack
}

TEST(AckSlot, CopyKeepsBothEngaged) {
  Packet a;
  a.ack.emplace().snack.missing = {4, 5};
  Packet b = a;
  ASSERT_TRUE(a.ack);
  ASSERT_TRUE(b.ack);
  b.ack->snack.missing.push_back(6);
  EXPECT_EQ(a.ack->snack.missing.size(), 2u);  // deep copy
  EXPECT_EQ(b.ack->snack.missing.size(), 3u);
}

TEST(PacketHeaderSplit, HeaderSliceKeepsHotFieldsOnly) {
  Packet p;
  p.seq = 9;
  p.flow = 2;
  p.energy_used = 1.5;
  p.ack.emplace().cumulative_ack = 7;
  const PacketHeader h = p;  // slice: the header is the cacheable part
  EXPECT_EQ(h.seq, 9u);
  EXPECT_EQ(h.flow, 2u);
  EXPECT_DOUBLE_EQ(h.energy_used, 1.5);
  Packet rebuilt(h);
  EXPECT_EQ(rebuilt.seq, 9u);
  EXPECT_FALSE(rebuilt.ack);  // ack state never survives the header trip
}

}  // namespace
}  // namespace jtp::core
