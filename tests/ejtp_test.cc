// Unit tests for the eJTP endpoints against a captured sink (no network).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/ejtp_receiver.h"
#include "core/ejtp_sender.h"
#include "test_util.h"

namespace jtp::core {
namespace {

using jtp::testing::SimHarness;

SenderConfig sender_cfg() {
  SenderConfig c;
  c.flow = 1;
  c.src = 0;
  c.dst = 3;
  c.initial_rate_pps = 2.0;
  c.default_timeout_s = 10.0;
  return c;
}

ReceiverConfig receiver_cfg() {
  ReceiverConfig c;
  c.flow = 1;
  c.src = 0;
  c.dst = 3;
  c.t_lower_bound_s = 5.0;
  return c;
}

Packet ack_for(const SenderConfig& cfg, SeqNo cum, double rate = 0.0,
               std::vector<SeqNo> missing = {},
               std::vector<SeqNo> recovered = {}) {
  Packet a;
  a.type = PacketType::kAck;
  a.flow = cfg.flow;
  a.src = cfg.dst;
  a.dst = cfg.src;
  AckHeader h;
  h.cumulative_ack = cum;
  h.advertised_rate_pps = rate;
  h.snack.missing = std::move(missing);
  h.snack.locally_recovered = std::move(recovered);
  a.ack = std::move(h);
  return a;
}

Packet data_at(FlowId flow, SeqNo seq, double avail_rate = 5.0) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.src = 0;
  p.dst = 3;
  p.seq = seq;
  p.available_rate_pps = avail_rate;
  p.energy_used = 0.001;
  return p;
}

// ------------------------- Sender -------------------------

TEST(EjtpSender, PacesAtConfiguredRate) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());
  s.start(0);  // long-lived
  h.sim.run_until(5.0);
  // 2 pps for 5 s => ~10 packets (first fires at t=0.5).
  EXPECT_NEAR(static_cast<double>(h.sink.data_count()), 10.0, 1.0);
  s.stop();
}

TEST(EjtpSender, SequencesAreConsecutive) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());
  s.start(0);
  h.sim.run_until(3.0);
  for (std::size_t i = 0; i < h.sink.sent.size(); ++i)
    EXPECT_EQ(h.sink.sent[i].seq, i);
  s.stop();
}

TEST(EjtpSender, StampsLossToleranceAndBudget) {
  SimHarness h;
  auto cfg = sender_cfg();
  cfg.loss_tolerance = 0.15;
  cfg.initial_energy_budget = 0.5;
  EjtpSender s(h.env, h.sink, cfg);
  s.start(0);
  h.sim.run_until(1.0);
  ASSERT_FALSE(h.sink.sent.empty());
  EXPECT_DOUBLE_EQ(h.sink.sent[0].loss_tolerance, 0.15);
  EXPECT_DOUBLE_EQ(h.sink.sent[0].energy_budget, 0.5);
  s.stop();
}

TEST(EjtpSender, AdoptsAdvertisedRateWithBoundedIncrease) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());  // starts at 2 pps, factor 1.5
  s.start(0);
  h.sim.run_until(1.0);
  s.on_ack(ack_for(sender_cfg(), 1, /*rate=*/8.0));
  EXPECT_DOUBLE_EQ(s.rate_pps(), 3.0);  // one step: 2 × 1.5
  s.on_ack(ack_for(sender_cfg(), 1, 8.0));
  EXPECT_DOUBLE_EQ(s.rate_pps(), 4.5);
  s.on_ack(ack_for(sender_cfg(), 1, 8.0));
  s.on_ack(ack_for(sender_cfg(), 1, 8.0));
  EXPECT_DOUBLE_EQ(s.rate_pps(), 8.0);  // converged to the advertisement
  s.stop();
}

TEST(EjtpSender, AdoptsRateDecreaseImmediately) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());
  s.start(0);
  h.sim.run_until(1.0);
  s.on_ack(ack_for(sender_cfg(), 1, /*rate=*/0.5));
  EXPECT_DOUBLE_EQ(s.rate_pps(), 0.5);  // decreases are not smoothed
  s.stop();
}

TEST(EjtpSender, IgnoresStaleReorderedAcks) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());
  s.start(0);
  h.sim.run_until(1.0);
  auto newer = ack_for(sender_cfg(), 3, 1.0);
  newer.ack->ack_serial = 5;
  s.on_ack(newer);
  EXPECT_DOUBLE_EQ(s.rate_pps(), 1.0);
  auto stale = ack_for(sender_cfg(), 2, 9.0, /*missing=*/{4});
  stale.ack->ack_serial = 4;  // older than what we've seen
  s.on_ack(stale);
  EXPECT_DOUBLE_EQ(s.rate_pps(), 1.0);  // stale rate not adopted
  EXPECT_EQ(s.cumulative_ack(), 3u);    // cumulative stays monotone
  s.stop();
}

TEST(EjtpSender, RetransmitsOnlySnackMissing) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());
  s.start(0);
  h.sim.run_until(3.0);  // ~6 packets out
  s.on_ack(ack_for(sender_cfg(), 2, 4.0, /*missing=*/{3},
                   /*recovered=*/{4}));
  h.sim.run_until(4.0);
  EXPECT_EQ(s.source_retransmissions(), 1u);
  EXPECT_EQ(s.locally_recovered_reported(), 1u);
  bool saw_rtx3 = false, saw_rtx4 = false;
  for (const auto& p : h.sink.sent) {
    if (p.is_source_retransmission && p.seq == 3) saw_rtx3 = true;
    if (p.is_source_retransmission && p.seq == 4) saw_rtx4 = true;
  }
  EXPECT_TRUE(saw_rtx3);
  EXPECT_FALSE(saw_rtx4);  // locally recovered: source must not resend
  s.stop();
}

TEST(EjtpSender, BacksOffForLocalRecovery) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());
  s.start(0);
  h.sim.run_until(2.0);
  const auto n_before = h.sink.data_count();
  // 4 packets recovered in-network at rate 2pps => tb = 2 s of silence.
  s.on_ack(ack_for(sender_cfg(), 1, 2.0, {}, {1, 2, 3, 4}));
  EXPECT_GT(s.total_backoff_s(), 1.9);
  h.sim.run_until(3.9);
  EXPECT_EQ(h.sink.data_count(), n_before);  // still backing off
  h.sim.run_until(6.0);
  EXPECT_GT(h.sink.data_count(), n_before);
  s.stop();
}

TEST(EjtpSender, BackoffDisabledByConfig) {
  SimHarness h;
  auto cfg = sender_cfg();
  cfg.backoff_for_local_recovery = false;
  EjtpSender s(h.env, h.sink, cfg);
  s.start(0);
  h.sim.run_until(2.0);
  s.on_ack(ack_for(cfg, 1, 2.0, {}, {1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.total_backoff_s(), 0.0);
  s.stop();
}

TEST(EjtpSender, WatchdogBacksOffOnSilence) {
  SimHarness h;
  auto cfg = sender_cfg();
  cfg.default_timeout_s = 2.0;
  cfg.kd = 0.5;
  EjtpSender s(h.env, h.sink, cfg);
  s.start(0);
  h.sim.run_until(20.0);  // no ACKs at all
  EXPECT_GT(s.rate_backoffs(), 2u);
  EXPECT_LT(s.rate_pps(), cfg.initial_rate_pps);
  s.stop();
}

TEST(EjtpSender, AckSilencesWatchdog) {
  SimHarness h;
  auto cfg = sender_cfg();
  cfg.default_timeout_s = 2.0;
  EjtpSender s(h.env, h.sink, cfg);
  s.start(0);
  // Feed ACKs regularly: watchdog must not back off.
  for (int i = 1; i <= 10; ++i) {
    h.sim.run_until(i * 1.0);
    s.on_ack(ack_for(cfg, 0, 2.0));
  }
  EXPECT_EQ(s.rate_backoffs(), 0u);
  s.stop();
}

TEST(EjtpSender, FiniteTransferCompletes) {
  SimHarness h;
  EjtpSender s(h.env, h.sink, sender_cfg());
  bool done = false;
  s.set_on_complete([&] { done = true; });
  s.start(5);
  h.sim.run_until(4.0);
  EXPECT_EQ(h.sink.data_count(), 5u);
  EXPECT_FALSE(done);
  s.on_ack(ack_for(sender_cfg(), 5, 2.0));
  EXPECT_TRUE(done);
  EXPECT_TRUE(s.finished());
}

TEST(EjtpSender, WindowCapLimitsOutstanding) {
  SimHarness h;
  auto cfg = sender_cfg();
  cfg.window_cap_packets = 3;
  cfg.initial_rate_pps = 100.0;
  EjtpSender s(h.env, h.sink, cfg);
  s.start(0);
  h.sim.run_until(1.0);
  EXPECT_EQ(h.sink.data_count(), 3u);  // stalls at the cap
  s.on_ack(ack_for(cfg, 2, 100.0));
  h.sim.run_until(1.2);
  EXPECT_GT(h.sink.data_count(), 3u);
  s.stop();
}

TEST(EjtpSender, TailLossRetransmitsWithoutSnack) {
  // A lost final packet never enters the receiver's horizon, so no SNACK
  // can name it; the sender must notice stalled cumulative progress.
  SimHarness h;
  auto cfg = sender_cfg();
  cfg.default_timeout_s = 2.0;
  EjtpSender s(h.env, h.sink, cfg);
  s.start(3);
  h.sim.run_until(2.0);  // all 3 sent
  EXPECT_EQ(h.sink.data_count(), 3u);
  // ACK acknowledges only the first two; seq 2 vanished silently.
  s.on_ack(ack_for(cfg, 2, 2.0));
  h.sim.run_until(30.0);
  EXPECT_GE(s.tail_retransmissions(), 1u);
  bool resent_tail = false;
  for (const auto& p : h.sink.sent)
    if (p.is_source_retransmission && p.seq == 2) resent_tail = true;
  EXPECT_TRUE(resent_tail);
  s.stop();
}

// ------------------------- Receiver -------------------------

TEST(EjtpReceiver, SendsRegularFeedback) {
  SimHarness h;
  EjtpReceiver r(h.env, h.sink, receiver_cfg());
  r.start();
  r.on_data(data_at(1, 0));
  h.sim.run_until(30.0);
  EXPECT_GE(r.acks_sent(), 2u);
  EXPECT_GE(h.sink.ack_count(), 2u);
  r.stop();
}

TEST(EjtpReceiver, NoFeedbackBeforeAnyData) {
  SimHarness h;
  EjtpReceiver r(h.env, h.sink, receiver_cfg());
  r.start();
  h.sim.run_until(60.0);
  EXPECT_EQ(r.acks_sent(), 0u);
  r.stop();
}

TEST(EjtpReceiver, AckCarriesCumulativeAndSnack) {
  SimHarness h;
  EjtpReceiver r(h.env, h.sink, receiver_cfg());
  r.start();
  r.on_data(data_at(1, 0));
  r.on_data(data_at(1, 1));
  r.on_data(data_at(1, 4));  // gap: 2, 3
  h.sim.run_until(10.0);
  ASSERT_GE(h.sink.ack_count(), 1u);
  const auto& ack = h.sink.sent.front();
  ASSERT_TRUE(ack.ack.has_value());
  EXPECT_EQ(ack.ack->cumulative_ack, 2u);
  EXPECT_EQ(ack.ack->snack.missing, (std::vector<SeqNo>{2, 3}));
  EXPECT_GT(ack.ack->sender_timeout_s, 0.0);
  r.stop();
}

TEST(EjtpReceiver, MonitorTriggerSendsEarlyFeedback) {
  SimHarness h;
  auto cfg = receiver_cfg();
  cfg.t_lower_bound_s = 100.0;  // regular feedback far away
  EjtpReceiver r(h.env, h.sink, cfg);
  r.start();
  // Establish a stable available rate...
  for (int i = 0; i < 50; ++i) r.on_data(data_at(1, i, 5.0));
  const auto before = r.acks_sent();
  // ...then crash it (persistent change => trigger => early ACK).
  for (int i = 50; i < 60; ++i) r.on_data(data_at(1, i, 0.2));
  EXPECT_GT(r.triggered_acks(), 0u);
  EXPECT_GT(r.acks_sent(), before);
  r.stop();
}

TEST(EjtpReceiver, FeedbackPeriodRespectsLowerBound) {
  SimHarness h;
  auto cfg = receiver_cfg();
  cfg.t_lower_bound_s = 5.0;
  EjtpReceiver r(h.env, h.sink, cfg);
  EXPECT_GE(r.current_feedback_period(), 5.0 - 1e-9);
}

TEST(EjtpReceiver, CachePressureShrinksPeriod) {
  SimHarness h;
  auto cfg = receiver_cfg();
  cfg.t_lower_bound_s = 50.0;
  cfg.cache_size_packets = 20;  // C/r - RTT = 20/1 - 2 = 18 < 50
  cfg.rtt_estimate_s = 2.0;
  EjtpReceiver r(h.env, h.sink, cfg);
  EXPECT_LE(r.current_feedback_period(), 18.0 + 1e-9);
}

TEST(EjtpReceiver, ConstantFeedbackModeUsesConfiguredRate) {
  SimHarness h;
  auto cfg = receiver_cfg();
  cfg.feedback_mode = FeedbackMode::kConstant;
  cfg.constant_feedback_rate_pps = 0.5;
  EjtpReceiver r(h.env, h.sink, cfg);
  r.start();
  r.on_data(data_at(1, 0));
  h.sim.run_until(20.5);
  // 0.5 ACK/s over 20 s => ~10 ACKs.
  EXPECT_NEAR(static_cast<double>(r.acks_sent()), 10.0, 2.0);
  r.stop();
}

TEST(EjtpReceiver, DeliversFreshOnlyOnce) {
  SimHarness h;
  EjtpReceiver r(h.env, h.sink, receiver_cfg());
  int delivered = 0;
  r.set_on_deliver([&](SeqNo, std::uint32_t) { ++delivered; });
  r.start();
  r.on_data(data_at(1, 0));
  r.on_data(data_at(1, 0));  // duplicate
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(r.duplicates(), 1u);
  r.stop();
}

TEST(EjtpReceiver, LossToleranceWaivesGaps) {
  SimHarness h;
  auto cfg = receiver_cfg();
  cfg.loss_tolerance = 0.2;
  EjtpReceiver r(h.env, h.sink, cfg);
  r.start();
  // 1 loss in 10: well within 20% tolerance.
  for (int i = 0; i < 10; ++i)
    if (i != 5) r.on_data(data_at(1, i));
  h.sim.run_until(10.0);
  ASSERT_GE(h.sink.ack_count(), 1u);
  const auto& ack = h.sink.sent.front();
  EXPECT_TRUE(ack.ack->snack.missing.empty());
  EXPECT_EQ(ack.ack->cumulative_ack, 10u);
  EXPECT_EQ(r.waived_packets(), 1u);
  r.stop();
}

// Feedback every second, retry interval 3.5 s: a hole named at t = 1 is
// left out of the ACKs at t = 2, 3 and 4 and named again at t = 5. A hole
// that appears later keeps its own spacing.
TEST(EjtpReceiver, SnackRepeatsAMissingSeqOnlyAfterTheRetryInterval) {
  SimHarness h;
  auto cfg = receiver_cfg();
  cfg.feedback_mode = FeedbackMode::kConstant;
  cfg.constant_feedback_rate_pps = 1.0;
  cfg.snack_retry_interval_s = 3.5;
  cfg.reorder_threshold = 0;
  EjtpReceiver r(h.env, h.sink, cfg);
  r.start();
  const double no_stamp = std::numeric_limits<double>::infinity();
  for (SeqNo s : {0, 1, 3}) r.on_data(data_at(1, s, no_stamp));  // hole 2
  h.sim.run_until(2.5);
  for (SeqNo s : {5, 6}) r.on_data(data_at(1, s, no_stamp));  // hole 4
  h.sim.run_until(9.5);
  ASSERT_EQ(h.sink.ack_count(), 9u);
  const std::vector<std::vector<SeqNo>> expected = {
      {2}, {}, {4}, {}, {2}, {}, {4}, {}, {2}};  // ACKs at t = 1 .. 9
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(h.sink.sent[i].ack.has_value());
    EXPECT_EQ(h.sink.sent[i].ack->cumulative_ack, 2u) << "ack " << i;
    EXPECT_EQ(h.sink.sent[i].ack->snack.missing, expected[i]) << "ack " << i;
  }
  r.stop();
}

TEST(EjtpReceiver, AdvertisedRateFollowsPi2Md) {
  SimHarness h;
  auto cfg = receiver_cfg();
  cfg.rate.initial_rate_pps = 1.0;
  EjtpReceiver r(h.env, h.sink, cfg);
  r.start();
  // Plenty of available rate: the advertised rate must grow across ACKs.
  for (int i = 0; i < 100; ++i) r.on_data(data_at(1, i, 10.0));
  h.sim.run_until(60.0);
  ASSERT_GE(h.sink.ack_count(), 2u);
  const auto& first = *h.sink.sent.front().ack;
  const auto& last = *h.sink.sent.back().ack;
  EXPECT_GT(last.advertised_rate_pps, first.advertised_rate_pps);
  r.stop();
}

}  // namespace
}  // namespace jtp::core
