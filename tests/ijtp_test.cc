// Tests for iJTP (paper Algorithms 1 and 2).
#include "core/ijtp.h"

#include <gtest/gtest.h>

#include <cmath>

namespace jtp::core {
namespace {

Packet data(FlowId flow, SeqNo seq, double lt = 0.0, Joules budget = 0.0) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.seq = seq;
  p.loss_tolerance = lt;
  p.energy_budget = budget;
  return p;
}

Packet ack_with_snack(FlowId flow, std::vector<SeqNo> missing) {
  Packet p;
  p.type = PacketType::kAck;
  p.flow = flow;
  AckHeader h;
  h.snack.missing = std::move(missing);
  p.ack = std::move(h);
  return p;
}

LinkView link(double loss = 0.1, double avail = 5.0, double attempts = 1.0) {
  return LinkView{loss, avail, attempts};
}

// ---------------- PreXmit (Algorithm 1) ----------------

TEST(IjtpPreXmit, ChargesEnergyToPacket) {
  IjtpModule m;
  Packet p = data(1, 0);
  m.pre_xmit(p, link(), 3, 0.002, true);
  EXPECT_DOUBLE_EQ(p.energy_used, 0.002);
  m.pre_xmit(p, link(), 3, 0.002, false);
  EXPECT_DOUBLE_EQ(p.energy_used, 0.004);
}

TEST(IjtpPreXmit, DropsWhenOverBudget) {
  IjtpModule m;
  Packet p = data(1, 0, 0.0, /*budget=*/0.005);
  EXPECT_FALSE(m.pre_xmit(p, link(), 3, 0.003, true).drop);
  EXPECT_TRUE(m.pre_xmit(p, link(), 3, 0.003, false).drop);
  EXPECT_EQ(m.energy_drops(), 1u);
}

TEST(IjtpPreXmit, ZeroBudgetMeansUnbudgeted) {
  IjtpModule m;
  Packet p = data(1, 0, 0.0, 0.0);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(m.pre_xmit(p, link(), 3, 1.0, i == 0).drop);
}

TEST(IjtpPreXmit, FullReliabilityGetsMaxAttempts) {
  IjtpModule m;
  Packet p = data(1, 0, /*lt=*/0.0);
  const auto r = m.pre_xmit(p, link(0.3), 4, 0.0, true);
  EXPECT_EQ(r.max_attempts, kDefaultMaxAttempts);
}

TEST(IjtpPreXmit, TolerantPacketGetsFewerAttempts) {
  IjtpModule m;
  Packet tolerant = data(1, 0, /*lt=*/0.2);
  Packet strict = data(1, 1, /*lt=*/0.0);
  const auto rt = m.pre_xmit(tolerant, link(0.3), 2, 0.0, true);
  const auto rs = m.pre_xmit(strict, link(0.3), 2, 0.0, true);
  EXPECT_LT(rt.max_attempts, rs.max_attempts);
}

TEST(IjtpPreXmit, UpdatesLossToleranceField) {
  IjtpModule m;
  Packet p = data(1, 0, /*lt=*/0.2);
  const double before = p.loss_tolerance;
  m.pre_xmit(p, link(0.1), 4, 0.0, true);
  EXPECT_NE(p.loss_tolerance, before);
  EXPECT_GE(p.loss_tolerance, 0.0);
  EXPECT_LE(p.loss_tolerance, 1.0);
}

TEST(IjtpPreXmit, RetriesSkipBudgetRecomputation) {
  IjtpModule m;
  Packet p = data(1, 0, /*lt=*/0.2);
  m.pre_xmit(p, link(0.1), 4, 0.0, true);
  const double lt_after_first = p.loss_tolerance;
  m.pre_xmit(p, link(0.1), 4, 0.0, false);  // retry
  EXPECT_DOUBLE_EQ(p.loss_tolerance, lt_after_first);
}

TEST(IjtpPreXmit, StampsMinimumAvailableRate) {
  IjtpModule m;
  Packet p = data(1, 0);
  EXPECT_TRUE(std::isinf(p.available_rate_pps));  // starts unstamped
  m.pre_xmit(p, link(0.1, /*avail=*/8.0, /*attempts=*/2.0), 3, 0.0, true);
  EXPECT_DOUBLE_EQ(p.available_rate_pps, 4.0);  // normalized by attempts
  m.pre_xmit(p, link(0.1, /*avail=*/10.0, /*attempts=*/1.0), 2, 0.0, true);
  EXPECT_DOUBLE_EQ(p.available_rate_pps, 4.0);  // min so far wins
  m.pre_xmit(p, link(0.1, /*avail=*/2.0, /*attempts=*/1.0), 1, 0.0, true);
  EXPECT_DOUBLE_EQ(p.available_rate_pps, 2.0);
}

TEST(IjtpPreXmit, SaturatedNodeZeroStampSurvivesDownstream) {
  // Regression: a zero stamp means "saturated node", and a later node
  // with idle capacity must not overwrite it.
  IjtpModule m;
  Packet p = data(1, 0);
  m.pre_xmit(p, link(0.1, /*avail=*/0.0), 3, 0.0, true);
  EXPECT_DOUBLE_EQ(p.available_rate_pps, 0.0);
  m.pre_xmit(p, link(0.1, /*avail=*/9.0), 2, 0.0, true);
  EXPECT_DOUBLE_EQ(p.available_rate_pps, 0.0);
}

TEST(IjtpPreXmit, AckPacketsAreNotRateStamped) {
  IjtpModule m;
  Packet p = ack_with_snack(1, {});
  m.pre_xmit(p, link(0.1, 8.0), 3, 0.001, true);
  EXPECT_TRUE(std::isinf(p.available_rate_pps));  // untouched
  EXPECT_DOUBLE_EQ(p.energy_used, 0.001);         // but energy is charged
}

// ---------------- PostRcv (Algorithm 2) ----------------

TEST(IjtpPostRcv, CachesTraversingData) {
  IjtpModule m;
  Packet p = data(1, 7);
  m.post_rcv(p);
  EXPECT_TRUE(m.cache().contains(1, 7));
}

TEST(IjtpPostRcv, CachingDisabledSkipsInsert) {
  IjtpConfig cfg;
  cfg.caching_enabled = false;
  IjtpModule m(cfg);
  Packet p = data(1, 7);
  m.post_rcv(p);
  EXPECT_EQ(m.cache().size(), 0u);
}

// Collects forwarded retransmissions; can be told to refuse.
struct Collector {
  std::vector<Packet> out;
  bool accept = true;
  IjtpModule::ForwardFn fn() {
    return [this](Packet&& p) {
      if (!accept) return false;
      out.push_back(std::move(p));
      return true;
    };
  }
};

TEST(IjtpPostRcv, ServesSnackFromCache) {
  IjtpModule m;
  Packet d = data(1, 3);
  m.post_rcv(d);
  Packet a = ack_with_snack(1, {3});
  Collector c;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 1u);
  ASSERT_EQ(c.out.size(), 1u);
  EXPECT_EQ(c.out[0].seq, 3u);
  EXPECT_TRUE(c.out[0].is_cache_retransmission);
  EXPECT_EQ(m.cache_retransmissions(), 1u);
}

TEST(IjtpPostRcv, RewritesAckOnLocalRecovery) {
  IjtpModule m;
  Packet d = data(1, 3);
  m.post_rcv(d);
  Packet a = ack_with_snack(1, {2, 3, 4});
  Collector c;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 1u);
  EXPECT_EQ(a.ack->snack.missing, (std::vector<SeqNo>{2, 4}));
  EXPECT_EQ(a.ack->snack.locally_recovered, (std::vector<SeqNo>{3}));
}

TEST(IjtpPostRcv, RefusedForwardLeavesSeqMissing) {
  // If the local queue refuses the copy, the recovery did not happen and
  // the seq must stay in SNACK.missing for upstream nodes / the source.
  IjtpModule m;
  Packet d = data(1, 3);
  m.post_rcv(d);
  Packet a = ack_with_snack(1, {3});
  Collector c;
  c.accept = false;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 0u);
  EXPECT_EQ(a.ack->snack.missing, (std::vector<SeqNo>{3}));
  EXPECT_TRUE(a.ack->snack.locally_recovered.empty());
  EXPECT_EQ(m.cache_retransmissions(), 0u);
}

TEST(IjtpPostRcv, BurstCapLimitsRetransmissionsPerAck) {
  IjtpConfig cfg;
  cfg.max_cache_rtx_per_ack = 2;
  IjtpModule m(cfg);
  for (SeqNo s = 0; s < 6; ++s) {
    Packet d = data(1, s);
    m.post_rcv(d);
  }
  Packet a = ack_with_snack(1, {0, 1, 2, 3, 4, 5});
  Collector c;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 2u);
  EXPECT_EQ(c.out.size(), 2u);
  EXPECT_EQ(a.ack->snack.locally_recovered.size(), 2u);
  EXPECT_EQ(a.ack->snack.missing.size(), 4u);  // rest left for upstream
}

TEST(IjtpPostRcv, AblationKeepsSnackIntact) {
  IjtpConfig cfg;
  cfg.rewrite_locally_recovered = false;
  IjtpModule m(cfg);
  Packet d = data(1, 3);
  m.post_rcv(d);
  Packet a = ack_with_snack(1, {3});
  Collector c;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 1u);  // still retransmits...
  EXPECT_EQ(a.ack->snack.missing, (std::vector<SeqNo>{3}));  // ...but the
  EXPECT_TRUE(a.ack->snack.locally_recovered.empty());  // source will too
}

TEST(IjtpPostRcv, CacheRetransmissionResetsRateStamp) {
  IjtpModule m;
  Packet d = data(1, 3);
  d.available_rate_pps = 1.5;  // stamped on the original path
  m.post_rcv(d);
  Packet a = ack_with_snack(1, {3});
  Collector c;
  m.post_rcv(a, c.fn());
  ASSERT_EQ(c.out.size(), 1u);
  EXPECT_TRUE(std::isinf(c.out[0].available_rate_pps));
}

TEST(IjtpPostRcv, MissDoesNotTouchAck) {
  IjtpModule m;
  Packet a = ack_with_snack(1, {9});
  Collector c;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 0u);
  EXPECT_TRUE(c.out.empty());
  EXPECT_EQ(a.ack->snack.missing, (std::vector<SeqNo>{9}));
}

TEST(IjtpPostRcv, DifferentFlowNotServed) {
  IjtpModule m;
  Packet d = data(2, 3);
  m.post_rcv(d);
  Packet a = ack_with_snack(1, {3});
  Collector c;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 0u);
}

TEST(IjtpPostRcv, CachingDisabledIgnoresSnack) {
  IjtpConfig cfg;
  cfg.caching_enabled = false;
  IjtpModule m(cfg);
  Packet a = ack_with_snack(1, {1});
  Collector c;
  EXPECT_EQ(m.post_rcv(a, c.fn()), 0u);
  EXPECT_EQ(a.ack->snack.missing.size(), 1u);
}

}  // namespace
}  // namespace jtp::core
