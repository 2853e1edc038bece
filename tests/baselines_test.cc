// Unit tests for the TCP-SACK, ATP and BBR baselines.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/atp.h"
#include "baselines/bbr.h"
#include "baselines/tcp_sack.h"
#include "test_util.h"

namespace jtp::baselines {
namespace {

using jtp::testing::SimHarness;

// ------------------------- PFTK equation -------------------------

TEST(Pftk, DecreasesWithLoss) {
  const double r1 = pftk_rate_pps(0.01, 1.0, 3.0);
  const double r2 = pftk_rate_pps(0.1, 1.0, 3.0);
  EXPECT_GT(r1, r2);
}

TEST(Pftk, DecreasesWithRtt) {
  EXPECT_GT(pftk_rate_pps(0.05, 0.5, 3.0), pftk_rate_pps(0.05, 2.0, 3.0));
}

TEST(Pftk, MatchesSqrtLawAtLowLoss) {
  // For small p the timeout term vanishes: r ≈ 1/(RTT·sqrt(2bp/3)).
  const double p = 1e-4, rtt = 1.0;
  const double expected = 1.0 / (rtt * std::sqrt(2.0 * 2.0 * p / 3.0));
  EXPECT_NEAR(pftk_rate_pps(p, rtt, 3.0) / expected, 1.0, 0.05);
}

TEST(Pftk, ZeroLossIsUncapped) {
  EXPECT_GT(pftk_rate_pps(0.0, 1.0, 3.0), 1e8);
}

// ------------------------- TCP endpoints -------------------------

TcpConfig tcp_cfg() {
  TcpConfig c;
  c.flow = 1;
  c.src = 0;
  c.dst = 2;
  c.initial_rate_pps = 2.0;
  c.initial_rtt_s = 1.0;
  return c;
}

TEST(TcpSender, UsesTcpHeaderSizes) {
  SimHarness h;
  TcpSackSender s(h.env, h.sink, tcp_cfg());
  s.start(0);
  h.sim.run_until(1.0);
  ASSERT_FALSE(h.sink.sent.empty());
  EXPECT_EQ(h.sink.sent[0].header_bytes(), kTcpDataHeaderBytes);
  s.stop();
}

TEST(TcpSender, FullReliabilityStamped) {
  SimHarness h;
  TcpSackSender s(h.env, h.sink, tcp_cfg());
  s.start(0);
  h.sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(h.sink.sent[0].loss_tolerance, 0.0);
  EXPECT_DOUBLE_EQ(h.sink.sent[0].energy_budget, 0.0);
  s.stop();
}

TEST(TcpSender, SackHolesGetRetransmitted) {
  SimHarness h;
  TcpSackSender s(h.env, h.sink, tcp_cfg());
  s.start(0);
  h.sim.run_until(3.0);
  core::Packet ack;
  ack.type = core::PacketType::kAck;
  ack.flow = 1;
  core::AckHeader hh;
  hh.cumulative_ack = 1;
  hh.snack.missing = {2};
  ack.ack = hh;
  s.on_ack(ack);
  h.sim.run_until(4.5);
  EXPECT_GE(s.source_retransmissions(), 1u);
  s.stop();
}

TEST(TcpSender, RtoFiresOnSilence) {
  SimHarness h;
  auto cfg = tcp_cfg();
  cfg.rto_min_s = 1.0;
  TcpSackSender s(h.env, h.sink, cfg);
  s.start(0);
  h.sim.run_until(30.0);
  EXPECT_GT(s.timeouts(), 0u);
  // Loss estimate inflated by timeouts => rate collapses.
  EXPECT_GT(s.loss_estimate(), cfg.initial_loss);
  s.stop();
}

TEST(TcpSender, RttEstimateFollowsEcho) {
  SimHarness h;
  TcpSackSender s(h.env, h.sink, tcp_cfg());
  s.start(0);
  h.sim.run_until(2.0);
  core::Packet ack;
  ack.type = core::PacketType::kAck;
  ack.flow = 1;
  core::AckHeader hh;
  hh.cumulative_ack = 1;
  hh.echo_send_time = h.sim.now() - 0.4;  // 400 ms RTT sample
  ack.ack = hh;
  for (int i = 0; i < 50; ++i) {
    hh.echo_send_time = h.sim.now() - 0.4;
    ack.ack = hh;
    s.on_ack(ack);
  }
  EXPECT_NEAR(s.srtt(), 0.4, 0.1);
  s.stop();
}

TEST(TcpReceiver, DelayedAckEveryTwoPackets) {
  SimHarness h;
  TcpSackReceiver r(h.env, h.sink, tcp_cfg());
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  // In-order stream: ACK every 2nd packet (the first may ack immediately).
  for (core::SeqNo s = 0; s < 20; ++s) {
    p.seq = s;
    r.on_data(p);
  }
  EXPECT_GE(r.acks_sent(), 9u);
  EXPECT_LE(r.acks_sent(), 12u);
  EXPECT_EQ(r.delivered_packets(), 20u);
}

TEST(TcpReceiver, OutOfOrderAcksImmediately) {
  SimHarness h;
  TcpSackReceiver r(h.env, h.sink, tcp_cfg());
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  p.seq = 0;
  r.on_data(p);
  const auto before = r.acks_sent();
  p.seq = 5;  // hole => immediate dup-ack analogue
  r.on_data(p);
  EXPECT_GT(r.acks_sent(), before);
  const auto& ack = h.sink.sent.back();
  ASSERT_TRUE(ack.ack.has_value());
  EXPECT_EQ(ack.ack->cumulative_ack, 1u);
  EXPECT_FALSE(ack.ack->snack.missing.empty());
}

// Every odd sequence number up to 59 is a hole. Each out-of-order arrival
// ACKs at once, and its SACK list names the lowest 16 holes, ascending.
TEST(TcpReceiver, SackListsTheFirst16HolesAboveTheCumulativeAck) {
  SimHarness h;
  TcpSackReceiver r(h.env, h.sink, tcp_cfg());
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  for (core::SeqNo s = 0; s <= 60; s += 2) {
    p.seq = s;
    r.on_data(p);
  }
  std::vector<core::SeqNo> holes;
  for (core::SeqNo s = 1; s < 32; s += 2) holes.push_back(s);
  ASSERT_TRUE(h.sink.sent.back().ack.has_value());
  EXPECT_EQ(h.sink.sent.back().ack->cumulative_ack, 1u);
  EXPECT_EQ(h.sink.sent.back().ack->snack.missing, holes);

  // Filling hole 1 moves the cumulative ACK to 3; the list slides with it.
  p.seq = 1;
  r.on_data(p);
  holes.erase(holes.begin());
  holes.push_back(33);
  EXPECT_EQ(h.sink.sent.back().ack->cumulative_ack, 3u);
  EXPECT_EQ(h.sink.sent.back().ack->snack.missing, holes);
  // A duplicate below the cumulative ACK delivers nothing new.
  p.seq = 0;
  r.on_data(p);
  EXPECT_EQ(r.delivered_packets(), 32u);
}

// ------------------------- ATP endpoints -------------------------

AtpConfig atp_cfg() {
  AtpConfig c;
  c.flow = 1;
  c.src = 0;
  c.dst = 2;
  c.initial_rate_pps = 2.0;
  c.feedback_period_s = 2.0;
  return c;
}

TEST(AtpReceiver, ConstantRateFeedback) {
  SimHarness h;
  AtpReceiver r(h.env, h.sink, atp_cfg());
  r.start();
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  p.seq = 0;
  p.available_rate_pps = 4.0;
  r.on_data(p);
  h.sim.run_until(20.5);
  // One ACK per 2 s once data was seen.
  EXPECT_NEAR(static_cast<double>(r.acks_sent()), 10.0, 1.5);
  r.stop();
}

TEST(AtpReceiver, SilentWithoutData) {
  SimHarness h;
  AtpReceiver r(h.env, h.sink, atp_cfg());
  r.start();
  h.sim.run_until(20.0);
  EXPECT_EQ(r.acks_sent(), 0u);
  r.stop();
}

TEST(AtpReceiver, SmoothsStampedRate) {
  SimHarness h;
  AtpReceiver r(h.env, h.sink, atp_cfg());
  r.start();
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  for (core::SeqNo s = 0; s < 100; ++s) {
    p.seq = s;
    p.available_rate_pps = 6.0;
    r.on_data(p);
  }
  EXPECT_NEAR(r.smoothed_rate_pps(), 6.0, 0.5);
  r.stop();
}

// Two holes in every three sequence numbers: the periodic feedback lists
// the lowest max_holes_per_ack of them, ascending. A cap of 40 is past
// the SNACK list's inline capacity.
TEST(AtpReceiver, FeedbackListsAtMostMaxHolesPerAckHoles) {
  SimHarness h;
  auto cfg = atp_cfg();
  cfg.max_holes_per_ack = 40;
  AtpReceiver r(h.env, h.sink, cfg);
  r.start();
  core::Packet p;
  p.type = core::PacketType::kData;
  p.flow = 1;
  for (core::SeqNo s = 0; s <= 90; s += 3) {
    p.seq = s;
    r.on_data(p);
  }
  h.sim.run_until(cfg.feedback_period_s + 0.5);
  ASSERT_EQ(h.sink.ack_count(), 1u);
  std::vector<core::SeqNo> holes;
  for (core::SeqNo s = 1; holes.size() < 40; ++s)
    if (s % 3 != 0) holes.push_back(s);
  EXPECT_EQ(h.sink.sent.back().ack->cumulative_ack, 1u);
  EXPECT_EQ(h.sink.sent.back().ack->snack.missing, holes);

  // Filling 1 and 2 moves the cumulative ACK to 4, past received 3.
  p.seq = 1;
  r.on_data(p);
  p.seq = 2;
  r.on_data(p);
  h.sim.run_until(2 * cfg.feedback_period_s + 0.5);
  ASSERT_EQ(h.sink.ack_count(), 2u);
  holes.erase(holes.begin(), holes.begin() + 2);
  holes.push_back(61);
  holes.push_back(62);
  EXPECT_EQ(h.sink.sent.back().ack->cumulative_ack, 4u);
  EXPECT_EQ(h.sink.sent.back().ack->snack.missing, holes);
  EXPECT_EQ(r.delivered_packets(), 33u);
  r.stop();
}

TEST(AtpSender, AdoptsLowerReportedRateImmediately) {
  SimHarness h;
  AtpSender s(h.env, h.sink, atp_cfg());
  s.start(0);
  core::Packet ack;
  ack.type = core::PacketType::kAck;
  ack.flow = 1;
  core::AckHeader hh;
  hh.advertised_rate_pps = 0.5;
  ack.ack = hh;
  s.on_ack(ack);
  EXPECT_DOUBLE_EQ(s.rate_pps(), 0.5);
  s.stop();
}

TEST(AtpSender, IncreasesFractionallyTowardHigherRate) {
  SimHarness h;
  auto cfg = atp_cfg();
  cfg.increase_fraction = 0.5;
  AtpSender s(h.env, h.sink, cfg);
  s.start(0);
  core::Packet ack;
  ack.type = core::PacketType::kAck;
  ack.flow = 1;
  core::AckHeader hh;
  hh.advertised_rate_pps = 10.0;
  ack.ack = hh;
  s.on_ack(ack);
  EXPECT_DOUBLE_EQ(s.rate_pps(), 2.0 + 0.5 * 8.0);  // halfway up
  s.stop();
}

TEST(AtpSender, EndToEndRecoveryOnly) {
  SimHarness h;
  AtpSender s(h.env, h.sink, atp_cfg());
  s.start(0);
  h.sim.run_until(3.0);
  core::Packet ack;
  ack.type = core::PacketType::kAck;
  ack.flow = 1;
  core::AckHeader hh;
  hh.cumulative_ack = 1;
  hh.snack.missing = {2, 3};
  ack.ack = hh;
  s.on_ack(ack);
  h.sim.run_until(5.0);
  EXPECT_GE(s.source_retransmissions(), 2u);
  s.stop();
}

TEST(AtpSender, SilenceBacksOffRate) {
  SimHarness h;
  AtpSender s(h.env, h.sink, atp_cfg());
  s.start(0);
  h.sim.run_until(30.0);  // no feedback at all
  EXPECT_LT(s.rate_pps(), 2.0);
  s.stop();
}

// ------------------------- BBR sender -------------------------

core::Packet bbr_ack(core::SeqNo cum, std::vector<core::SeqNo> holes) {
  core::Packet ack;
  ack.type = core::PacketType::kAck;
  ack.flow = 1;
  core::AckHeader& hh = ack.ack.emplace();
  hh.cumulative_ack = cum;
  hh.snack.missing = std::move(holes);
  return ack;
}

std::size_t source_rtx_of(const std::vector<core::Packet>& sent,
                          core::SeqNo seq) {
  std::size_t n = 0;
  for (const auto& p : sent)
    if (p.is_source_retransmission && p.seq == seq) ++n;
  return n;
}

TEST(BbrSender, RetransmitsEachSackHoleOnceAndNoSackedSeq) {
  SimHarness h;
  BbrConfig cfg;
  cfg.flow = 1;
  cfg.src = 0;
  cfg.dst = 2;
  cfg.initial_rate_pps = 2.0;  // × the startup gain: ~5.8 pps
  BbrSender s(h.env, h.sink, cfg);
  s.start(0);
  h.sim.run_until(2.0);
  ASSERT_GE(h.sink.data_count(), 8u);  // seqs 0..7 at least are out
  // Holes at 2 and 4; 3, between them, is SACK-implied received. The
  // duplicate report must not queue the holes twice.
  s.on_ack(bbr_ack(2, {2, 4}));
  s.on_ack(bbr_ack(2, {2, 4}));
  h.sim.run_until(3.0);  // well inside the first timeout
  EXPECT_EQ(source_rtx_of(h.sink.sent, 2), 1u);
  EXPECT_EQ(source_rtx_of(h.sink.sent, 4), 1u);
  EXPECT_EQ(s.source_retransmissions(), 2u);
  // A later report naming 3 as a hole, and the timeouts of a long
  // silence, never resend a sequence number known to be received.
  s.on_ack(bbr_ack(2, {2, 3, 4}));
  h.sim.run_until(30.0);
  EXPECT_GT(s.timeouts(), 0u);
  EXPECT_GT(source_rtx_of(h.sink.sent, 2), 1u);  // the timeout's pick
  EXPECT_EQ(source_rtx_of(h.sink.sent, 3), 0u);
  s.stop();
}

}  // namespace
}  // namespace jtp::baselines
