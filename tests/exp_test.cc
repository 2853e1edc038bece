// Tests for the experiment harness: scenarios, workloads, runner, metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"

namespace jtp::exp {
namespace {

ScenarioSpec quiet(std::size_t net_size = 3) {
  ScenarioSpec sc;
  sc.net_size = net_size;
  sc.fading = false;
  sc.loss_good = 0.0;
  return sc;
}

TEST(Scenario, LinearBuildsChain) {
  auto s = build(quiet(6));
  EXPECT_EQ(s.network->size(), 6u);
  EXPECT_TRUE(s.network->topology().connected());
  EXPECT_EQ(s.network->routing().hops(0, 5), 5);
  EXPECT_TRUE(s.flows->flows().empty());  // manual workload: none yet
}

TEST(Scenario, RandomIsConnectedAndSeedStable) {
  auto sc = quiet(12);
  sc.topology = TopologyKind::kRandom;
  sc.seed = 77;
  auto a = build(sc);
  auto b = build(sc);
  EXPECT_TRUE(a.network->topology().connected());
  for (core::NodeId i = 0; i < 12; ++i) {
    EXPECT_DOUBLE_EQ(a.network->topology().position(i).x,
                     b.network->topology().position(i).x);
    EXPECT_DOUBLE_EQ(a.network->topology().position(i).y,
                     b.network->topology().position(i).y);
  }
}

TEST(Scenario, FieldSideGrowsWithNodes) {
  EXPECT_GT(random_field_side_m(25), random_field_side_m(10));
}

TEST(Scenario, TestbedPresetIs14NodesStableLinksPoisson) {
  auto sc = preset("testbed");
  auto s = build(sc);
  EXPECT_EQ(s.network->size(), 14u);
  EXPECT_TRUE(s.network->topology().connected());
  EXPECT_FALSE(s.network->channel().config().fading_enabled);
  EXPECT_FALSE(s.flows->flows().empty());  // Poisson arrivals attached
  for (const auto& f : s.flows->flows())
    EXPECT_EQ(f->total_packets, 125u);
}

TEST(Scenario, LinearPresetAttachesTwoOpposingFlows) {
  auto s = build(preset("linear"));
  ASSERT_EQ(s.flows->flows().size(), 2u);
  const auto& f1 = *s.flows->flows()[0];
  const auto& f2 = *s.flows->flows()[1];
  EXPECT_EQ(f1.src, 0u);
  EXPECT_EQ(f1.dst, 4u);
  EXPECT_EQ(f2.src, 4u);
  EXPECT_EQ(f2.dst, 0u);
  EXPECT_DOUBLE_EQ(f1.start_time, 10.0);
  EXPECT_DOUBLE_EQ(f2.start_time, 20.0);
}

TEST(Scenario, RandomPairsWorkloadDrawsDistinctEndpoints) {
  auto sc = preset("random");
  sc.fading = false;
  sc.loss_good = 0.0;
  auto s = build(sc);
  ASSERT_EQ(s.flows->flows().size(), 5u);
  for (const auto& f : s.flows->flows()) EXPECT_NE(f->src, f->dst);
}

TEST(Scenario, GridTopologyIsConnected) {
  auto sc = quiet(12);
  sc.topology = TopologyKind::kGrid;
  sc.grid_cols = 4;
  auto s = build(sc);
  EXPECT_EQ(s.network->size(), 12u);
  EXPECT_TRUE(s.network->topology().connected());
}

TEST(Scenario, MobileChainGetsMobility) {
  // A combination the old four builders could not express.
  auto sc = quiet(5);
  sc.speed_mps = 2.0;
  const auto cfg = make_network_config(sc);
  EXPECT_FALSE(cfg.mobility.has_value());  // mobility is added by build()
  auto s = build(sc);
  s.network->run_until(50.0);  // moves nodes; just has to run
  EXPECT_EQ(s.network->size(), 5u);
}

TEST(Scenario, JncDisablesCaching) {
  auto sc = quiet();
  sc.proto = Proto::kJnc;
  const auto cfg = make_network_config(sc);
  EXPECT_FALSE(cfg.node.ijtp.caching_enabled);
  sc.proto = Proto::kJtp;
  EXPECT_TRUE(make_network_config(sc).node.ijtp.caching_enabled);
}

TEST(Scenario, FanInWorkloadConvergesOnSink) {
  auto sc = quiet(8);
  sc.workload.kind = WorkloadKind::kFanIn;
  sc.workload.fan_in = 3;
  sc.workload.start_delay_s = 5.0;
  sc.workload.stagger_s = 2.0;
  auto s = build(sc);
  ASSERT_EQ(s.flows->flows().size(), 3u);
  std::vector<bool> seen(8, false);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& f = *s.flows->flows()[i];
    EXPECT_EQ(f.dst, 0u);
    EXPECT_NE(f.src, 0u);
    EXPECT_FALSE(seen[f.src]) << "duplicate sender " << f.src;
    seen[f.src] = true;
    EXPECT_DOUBLE_EQ(f.start_time, 5.0 + 2.0 * static_cast<double>(i));
  }
}

TEST(Scenario, FanInRejectsMoreSendersThanNodes) {
  auto sc = quiet(4);
  sc.workload.kind = WorkloadKind::kFanIn;
  sc.workload.fan_in = 4;  // only 3 non-sink nodes exist
  EXPECT_THROW(build(sc), std::invalid_argument);
}

TEST(Scenario, OnOffWorkloadFiresBoundedBursts) {
  auto sc = quiet(5);
  sc.workload.kind = WorkloadKind::kOnOff;
  sc.workload.n_flows = 2;
  sc.workload.transfer_packets = 10;
  sc.workload.mean_burst_gap_s = 20.0;
  sc.workload.arrival_window_s = 200.0;
  sc.workload.start_delay_s = 1.0;
  auto s = build(sc);
  ASSERT_FALSE(s.flows->flows().empty());
  // Every burst is a bounded transfer on one of the two source pairs,
  // starting inside the window.
  std::set<std::pair<core::NodeId, core::NodeId>> pairs;
  for (const auto& f : s.flows->flows()) {
    EXPECT_EQ(f->total_packets, 10u);
    EXPECT_NE(f->src, f->dst);
    EXPECT_GE(f->start_time, 1.0);
    EXPECT_LT(f->start_time, 201.0);
    pairs.insert({f->src, f->dst});
  }
  EXPECT_LE(pairs.size(), 2u);
}

TEST(Scenario, OnOffRequiresBurstSize) {
  auto sc = quiet(5);
  sc.workload.kind = WorkloadKind::kOnOff;
  sc.workload.transfer_packets = 0;
  EXPECT_THROW(build(sc), std::invalid_argument);
}

TEST(Scenario, ScalePresetFansIntoNodeZero) {
  auto sc = preset("scale");
  sc.net_size = 30;  // keep the test light; the preset defaults to 100
  sc.fading = false;
  sc.loss_good = 0.0;
  auto s = build(sc);
  EXPECT_TRUE(s.network->topology().connected());
  ASSERT_EQ(s.flows->flows().size(), 8u);
  for (const auto& f : s.flows->flows()) EXPECT_EQ(f->dst, 0u);
}

TEST(Scenario, BuildRejectsTinyNetwork) {
  auto sc = quiet();
  sc.net_size = 1;
  EXPECT_THROW(build(sc), std::invalid_argument);
}

TEST(Scenario, UnknownPresetThrows) {
  EXPECT_THROW(preset("starlink"), std::invalid_argument);
}

TEST(ScenarioSpecParse, PresetThenOverrides) {
  const auto r = parse_scenario("mobile,net_size=25,speed=5,proto=tcp");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.spec.topology, TopologyKind::kRandom);
  EXPECT_EQ(r.spec.net_size, 25u);
  EXPECT_DOUBLE_EQ(r.spec.speed_mps, 5.0);
  EXPECT_EQ(r.spec.proto, Proto::kTcp);
  EXPECT_EQ(r.spec.workload.kind, WorkloadKind::kRandomPairs);
}

TEST(ScenarioSpecParse, EmptyStringIsDefaults) {
  const auto r = parse_scenario("");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.spec, ScenarioSpec{});
}

TEST(ScenarioSpecParse, EveryKeyRoundTrips) {
  ScenarioSpec s;
  s.topology = TopologyKind::kGrid;
  s.net_size = 21;
  s.grid_cols = 3;
  s.speed_mps = 2.5;
  s.fading = false;
  s.loss_good = 0.11;
  s.loss_bad = 0.77;
  s.bad_fraction = 0.31;
  s.proto = Proto::kAtp;
  s.cache_size_packets = 17;
  s.queue_capacity_packets = 9;
  s.slot_duration_s = 0.05;
  s.routing_refresh_s = 2.5;
  s.seed = 1234;
  s.mac = mac::Mac::kCsma;
  s.csma_min_be = 2;
  s.csma_max_be = 6;
  s.csma_max_backoffs = 5;
  s.workload.kind = WorkloadKind::kPoisson;
  s.workload.n_flows = 7;
  s.workload.transfer_packets = 33;
  s.workload.start_delay_s = 1.25;
  s.workload.stagger_s = 0.5;
  s.workload.mean_interarrival_s = 123.5;
  s.workload.arrival_window_s = 456.25;
  s.workload.mean_burst_gap_s = 30.5;
  s.workload.fan_in = 6;
  s.workload.loss_tolerance = 0.125;
  const auto r = parse_scenario(to_string(s));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.spec, s);
}

TEST(ScenarioSpecParse, MacKeysRoundTrip) {
  ScenarioSpec s;
  s.mac = mac::Mac::kTdmaReuse;
  s.reuse_margin = 1.5;
  const auto r = parse_scenario(to_string(s));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.spec, s);
  EXPECT_EQ(r.spec.mac, mac::Mac::kTdmaReuse);
  EXPECT_DOUBLE_EQ(r.spec.reuse_margin, 1.5);
}

TEST(ScenarioSpecParse, RejectsMacFamilyMismatches) {
  // Unknown (or non-CLI) MAC names.
  EXPECT_FALSE(parse_scenario("mac=aloha").ok());
  EXPECT_FALSE(parse_scenario("mac=ext").ok());  // extension slot: API-only
  // Family cross-talk: tuning a discipline the spec does not select.
  EXPECT_FALSE(parse_scenario("reuse_margin=1.5").ok());
  EXPECT_FALSE(parse_scenario("mac=csma,reuse_margin=1.5").ok());
  EXPECT_FALSE(parse_scenario("mac=tdma,min_be=2").ok());
  EXPECT_FALSE(parse_scenario("mac=tdma_reuse,max_backoffs=2").ok());
  // Internally inconsistent CSMA windows and out-of-range values.
  EXPECT_FALSE(parse_scenario("mac=csma,min_be=6,max_be=4").ok());
  EXPECT_FALSE(parse_scenario("mac=csma,min_be=11").ok());
  EXPECT_FALSE(parse_scenario("reuse_margin=0.5").ok());  // below 1
  // The valid forms of the same keys.
  EXPECT_TRUE(parse_scenario("mac=tdma_reuse,reuse_margin=1.5").ok());
  EXPECT_TRUE(parse_scenario("mac=csma,min_be=2,max_be=6").ok());
  EXPECT_TRUE(parse_scenario("mac=tdma").ok());
}

TEST(ScenarioBuild, RejectsCrossFamilyKnobsFromCode) {
  // build() re-validates: programmatic specs cannot smuggle a tuned knob
  // past the parser.
  auto sc = quiet();
  sc.reuse_margin = 2.0;  // but mac stays kTdma
  EXPECT_THROW(build(sc), std::invalid_argument);
}

TEST(ScenarioSpecParse, PresetsRoundTrip) {
  for (const auto& name : preset_names()) {
    const auto r = parse_scenario(to_string(preset(name)));
    ASSERT_TRUE(r.ok()) << name << ": " << r.error;
    EXPECT_EQ(r.spec, preset(name)) << name;
  }
}

TEST(ScenarioSpecParse, RejectsMalformedInput) {
  EXPECT_FALSE(parse_scenario("definitely_not_a_key=3").ok());
  EXPECT_FALSE(parse_scenario("net_size=abc").ok());
  EXPECT_FALSE(parse_scenario("net_size=-4").ok());
  EXPECT_FALSE(parse_scenario("net_size=1").ok());       // below minimum
  EXPECT_FALSE(parse_scenario("loss_good=1.5").ok());    // out of [0,1]
  EXPECT_FALSE(parse_scenario("proto=quic").ok());
  EXPECT_FALSE(parse_scenario("topology=torus").ok());
  EXPECT_FALSE(parse_scenario("workload=ddos").ok());
  EXPECT_FALSE(parse_scenario("burst_gap=0").ok());    // must be positive
  EXPECT_FALSE(parse_scenario("fan_in=0").ok());
  EXPECT_FALSE(parse_scenario("fading=maybe").ok());
  EXPECT_FALSE(parse_scenario("speed=").ok());           // empty value
  EXPECT_FALSE(parse_scenario("=3").ok());               // empty key
  EXPECT_FALSE(parse_scenario("net_size=4,,seed=1").ok());  // empty token
  EXPECT_FALSE(parse_scenario("no_such_preset").ok());
  EXPECT_FALSE(parse_scenario("net_size=4,linear").ok());  // preset not 1st
  EXPECT_FALSE(parse_scenario("seed=1e4").ok());         // ints are digits
  // strtoull saturation must not slip through as ULLONG_MAX.
  EXPECT_FALSE(parse_scenario("net_size=99999999999999999999999").ok());
  EXPECT_FALSE(parse_scenario("seed=18446744073709551616").ok());  // 2^64
}

TEST(ScenarioSpecParse, ApplyTokensOverlaysOntoBase) {
  auto spec = preset("testbed");
  const auto err = apply_scenario_tokens(spec, "net_size=10,interarrival=50");
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(spec.net_size, 10u);
  EXPECT_DOUBLE_EQ(spec.workload.mean_interarrival_s, 50.0);
  EXPECT_EQ(spec.topology, TopologyKind::kGrid);  // base preserved
}

TEST(FlowManager, RejectsJncOnCachingNetwork) {
  auto sc = quiet();  // caching enabled (proto default kJtp)
  auto s = build(sc);
  EXPECT_THROW(FlowManager(*s.network, Proto::kJnc), std::invalid_argument);
}

TEST(FlowManager, ProtoNames) {
  EXPECT_EQ(proto_name(Proto::kJtp), "jtp");
  EXPECT_EQ(proto_name(Proto::kJnc), "jnc");
  EXPECT_EQ(proto_name(Proto::kTcp), "tcp");
  EXPECT_EQ(proto_name(Proto::kAtp), "atp");
  EXPECT_EQ(proto_name(Proto::kJtpDr), "jtp_dr");
  EXPECT_EQ(proto_name(Proto::kBbr), "bbr");
  EXPECT_EQ(parse_proto("jtp"), Proto::kJtp);
  EXPECT_EQ(parse_proto("atp"), Proto::kAtp);
  EXPECT_EQ(parse_proto("jtp_dr"), Proto::kJtpDr);
  EXPECT_EQ(parse_proto("bbr"), Proto::kBbr);
  EXPECT_FALSE(parse_proto("sctp").has_value());
}

TEST(FlowManager, CompletionTimeRecorded) {
  auto s = build(quiet());
  auto& flow = s.flows->create(0, 2, 20);
  s.network->run_until(500.0);
  ASSERT_TRUE(flow.finished());
  EXPECT_GT(flow.completed_at, 0.0);
  EXPECT_LT(flow.completed_at, 500.0);
}

TEST(FlowManager, GoodputUsesCompletionTime) {
  auto s = build(quiet());
  auto& flow = s.flows->create(0, 2, 20);
  s.network->run_until(10000.0);  // long horizon must not dilute goodput
  ASSERT_TRUE(flow.finished());
  const auto m = s.flows->collect(10000.0);
  const double expect_kbps =
      flow.delivered_bits() / flow.completed_at / 1e3;
  EXPECT_NEAR(m.per_flow_goodput_kbps_mean, expect_kbps, 1e-9);
}

// The completion count tells "no flow finished" apart from "finished
// instantly", which a p99 of 0 alone cannot.
TEST(FlowManager, CompletionCountSitsBesideP99) {
  auto run = [](const std::string& text, double horizon) {
    const auto r = parse_scenario(text);
    EXPECT_TRUE(r.ok()) << r.error;
    auto s = build(r.spec);
    s.network->run_until(horizon);
    return s.flows->collect(horizon);
  };
  const auto done = run("linear,transfer=50", 600.0);
  EXPECT_EQ(done.flows_completed, 2u);
  EXPECT_GT(done.p99_completion_s, 0.0);
  const auto none = run("scale,net_size=100", 60.0);
  EXPECT_EQ(none.flows_completed, 0u);
  EXPECT_DOUBLE_EQ(none.p99_completion_s, 0.0);
}

TEST(FlowManager, DelayedStartHonored) {
  auto s = build(quiet());
  auto& flow = s.flows->create(0, 2, 0, /*start_delay_s=*/100.0);
  s.network->run_until(50.0);
  EXPECT_EQ(flow.data_sent(), 0u);
  s.network->run_until(200.0);
  EXPECT_GT(flow.data_sent(), 0u);
}

TEST(Runner, RunSeedsUsesDistinctSeeds) {
  std::vector<std::uint64_t> seen;
  run_seeds(4, 10, [&](std::uint64_t s) {
    seen.push_back(s);
    return RunMetrics{};
  });
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_NE(seen[i], seen[i - 1]);
}

TEST(Runner, AggregateMeanAndCi) {
  std::vector<RunMetrics> runs(4);
  for (std::size_t i = 0; i < 4; ++i) runs[i].total_energy_j = 1.0 + i;
  const auto a = aggregate(
      runs, [](const RunMetrics& m) { return m.total_energy_j; });
  EXPECT_DOUBLE_EQ(a.mean, 2.5);
  EXPECT_GT(a.ci95, 0.0);
  EXPECT_EQ(a.runs, 4u);
}

TEST(Metrics, EnergyPerBitGuardsZeroDelivery) {
  RunMetrics m;
  m.total_energy_j = 5.0;
  EXPECT_DOUBLE_EQ(m.energy_per_bit_uj(), 0.0);
  m.delivered_payload_bits = 1e6;
  EXPECT_DOUBLE_EQ(m.energy_per_bit_uj(), 5.0);
  EXPECT_DOUBLE_EQ(m.energy_per_bit_mj(), 5e-3);
  EXPECT_DOUBLE_EQ(m.delivered_kbit(), 1e3);
}

TEST(Runner, FormatHelpers) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  Aggregate a{2.5, 0.5, 3};
  const auto s = with_ci(a, 1);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_NE(s.find("0.5"), std::string::npos);
}

TEST(Runner, SeedForRunIsOrderIndependent) {
  EXPECT_EQ(seed_for_run(1, 0), 1001u);
  EXPECT_EQ(seed_for_run(1, 3), 4001u);
  // The same derivation the serial runner has always used.
  std::vector<std::uint64_t> seen;
  run_seeds(3, 7, [&](std::uint64_t s) {
    seen.push_back(s);
    return RunMetrics{};
  });
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(seen[i], seed_for_run(7, i));
}

TEST(Runner, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_GE(resolve_jobs(0), 1u);  // auto: at least one job
}

// The headline property of the parallel runner: any job count produces the
// exact RunMetrics vector of a serial run, element by element, on a real
// lossy scenario.
TEST(Runner, ParallelMatchesSerialOnRealScenario) {
  auto body = [](std::uint64_t s) {
    ScenarioSpec sc;
    sc.seed = s;
    sc.net_size = 4;
    sc.loss_good = 0.05;
    auto scenario = build(sc);
    scenario.flows->create(0, 3, 0);
    scenario.network->run_until(300.0);
    return scenario.flows->collect(300.0);
  };
  const auto serial = run_seeds(6, 9, body, /*jobs=*/1);
  const auto parallel = run_seeds(6, 9, body, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].total_energy_j, parallel[i].total_energy_j);
    EXPECT_DOUBLE_EQ(serial[i].delivered_payload_bits,
                     parallel[i].delivered_payload_bits);
    EXPECT_EQ(serial[i].delivered_packets, parallel[i].delivered_packets);
    EXPECT_EQ(serial[i].data_packets_sent, parallel[i].data_packets_sent);
    EXPECT_EQ(serial[i].source_retransmissions,
              parallel[i].source_retransmissions);
    EXPECT_EQ(serial[i].cache_retransmissions,
              parallel[i].cache_retransmissions);
    EXPECT_EQ(serial[i].acks_sent, parallel[i].acks_sent);
    EXPECT_EQ(serial[i].transmissions, parallel[i].transmissions);
    EXPECT_EQ(serial[i].per_node_energy_j, parallel[i].per_node_energy_j);
  }
}

TEST(Runner, RunSeedsAsCustomTypeKeepsSeedOrder) {
  auto out = run_seeds_as(
      8, 100, [](std::uint64_t s) { return s * 2; }, /*jobs=*/4);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(out[i], seed_for_run(100, i) * 2);
}

TEST(Runner, ParallelRunsAllIndices) {
  std::atomic<int> calls{0};
  run_seeds_as(
      16, 1,
      [&](std::uint64_t) {
        calls.fetch_add(1);
        return 0;
      },
      /*jobs=*/4);
  EXPECT_EQ(calls.load(), 16);
}

TEST(Runner, ParallelPropagatesExceptions) {
  auto boom = [](std::uint64_t s) -> RunMetrics {
    if (s == seed_for_run(1, 2)) throw std::runtime_error("boom");
    return RunMetrics{};
  };
  EXPECT_THROW(run_seeds(8, 1, boom, /*jobs=*/4), std::runtime_error);
  EXPECT_THROW(run_seeds(8, 1, boom, /*jobs=*/1), std::runtime_error);
}

TEST(Report, PrintsTableAndMirrorsCsv) {
  const std::string path = ::testing::TempDir() + "exp_test_report.csv";
  std::ostringstream os;
  {
    Report rep(os, "demo", {{"n", 0}, {"e", 2, /*with_ci=*/true}}, 10);
    ASSERT_TRUE(rep.to_csv(path));
    rep.begin();
    rep.row({3, Aggregate{1.5, 0.25, 4}});
    rep.row({4, 2.0}, /*echo=*/false);  // CSV-only row
    EXPECT_TRUE(rep.finish());
    EXPECT_EQ(rep.series().rows().size(), 2u);
  }
  const std::string table = os.str();
  EXPECT_NE(table.find("--- demo ---"), std::string::npos);
  EXPECT_NE(table.find("1.50 ±0.25"), std::string::npos);
  EXPECT_EQ(table.find("2.00"), std::string::npos);  // echo=false not printed
  EXPECT_NE(table.find(path), std::string::npos);    // "written to" note

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(),
            "n,e,e_ci95\n"
            "3,1.50,0.25\n"
            "4,2.00,0.00\n");
  std::remove(path.c_str());
}

TEST(Report, ToCsvFailsFastOnBadPath) {
  std::ostringstream os;
  Report rep(os, "", {{"a", 1}}, 10);
  EXPECT_FALSE(rep.to_csv("/nonexistent-dir/x/y.csv"));
}

TEST(Report, WorksWithoutCsv) {
  std::ostringstream os;
  Report rep(os, "", {{"a", 1}}, 10);
  rep.begin();
  rep.row({1.0});
  EXPECT_TRUE(rep.finish());
  EXPECT_EQ(os.str().find("written to"), std::string::npos);
}

// Property: the same seed gives bit-identical metrics for every protocol
// (the paper's "same conditions in the same run" requirement).
class DeterminismTest : public ::testing::TestWithParam<Proto> {};

TEST_P(DeterminismTest, SameSeedSameMetrics) {
  const Proto proto = GetParam();
  auto run = [&] {
    auto sc = quiet(4);
    sc.seed = 123;
    sc.proto = proto;
    sc.fading = true;
    sc.loss_good = 0.05;
    auto s = build(sc);
    s.flows->create(0, 3, 0);
    s.network->run_until(400.0);
    return s.flows->collect(400.0);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.acks_sent, b.acks_sent);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

INSTANTIATE_TEST_SUITE_P(AllProtos, DeterminismTest,
                         ::testing::Values(Proto::kJtp, Proto::kTcp,
                                           Proto::kAtp));

// The sharded event loop's headline contract: splitting one run across K
// worker threads must not change a single result bit. A 400-node scale
// field partitions into real shards with busy boundaries (the fan-in
// workload converges on node 0, so traffic crosses every cut), and every
// metric — counts, FP energy sums, per-node energy vectors — must come
// out identical to the single-threaded run.
TEST(ShardDeterminism, ScaleScenarioIsBitIdenticalAcrossShardCounts) {
  auto run = [](std::size_t shards) {
    auto sc = preset("scale");
    sc.net_size = 400;
    sc.seed = 5;
    sc.mac = mac::Mac::kTdmaReuse;  // real throughput => busy boundaries
    sc.shards = shards;
    auto s = build(sc);
    s.network->run_until(40.0);
    auto m = s.flows->collect(40.0);
    return m;
  };
  const auto ref = run(1);
  EXPECT_GT(ref.delivered_packets, 0u);  // the comparison is not vacuous
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    const auto got = run(k);
    EXPECT_EQ(got.delivered_packets, ref.delivered_packets);
    EXPECT_EQ(got.delivered_payload_bits, ref.delivered_payload_bits);
    EXPECT_EQ(got.data_packets_sent, ref.data_packets_sent);
    EXPECT_EQ(got.source_retransmissions, ref.source_retransmissions);
    EXPECT_EQ(got.acks_sent, ref.acks_sent);
    EXPECT_EQ(got.transmissions, ref.transmissions);
    EXPECT_EQ(got.queue_drops, ref.queue_drops);
    EXPECT_EQ(got.attempt_drops, ref.attempt_drops);
    EXPECT_EQ(got.cache_retransmissions, ref.cache_retransmissions);
    EXPECT_EQ(got.route_drops, ref.route_drops);
    EXPECT_DOUBLE_EQ(got.per_flow_goodput_kbps_mean,
                     ref.per_flow_goodput_kbps_mean);
    EXPECT_DOUBLE_EQ(got.total_energy_j, ref.total_energy_j);
    ASSERT_EQ(got.per_node_energy_j.size(), ref.per_node_energy_j.size());
    for (std::size_t i = 0; i < ref.per_node_energy_j.size(); ++i)
      ASSERT_DOUBLE_EQ(got.per_node_energy_j[i], ref.per_node_energy_j[i])
          << "node " << i;
  }
}

// The delivery-rate transports keep the same contract: their sampler /
// model state lives entirely on the flow endpoints, so sharding the
// event loop under them must not perturb a single sample. A smaller
// field than the kJtp test keeps the added runtime modest while still
// partitioning into real shards at K=4.
TEST(ShardDeterminism, DeliveryRateProtosAreBitIdenticalAcrossShardCounts) {
  for (const auto proto : {Proto::kJtpDr, Proto::kBbr}) {
    SCOPED_TRACE(proto_name(proto));
    auto run = [&](std::size_t shards) {
      auto sc = preset("scale");
      sc.net_size = 100;
      sc.seed = 5;
      sc.proto = proto;
      sc.mac = mac::Mac::kTdmaReuse;
      sc.shards = shards;
      auto s = build(sc);
      s.network->run_until(40.0);
      return s.flows->collect(40.0);
    };
    const auto ref = run(1);
    EXPECT_GT(ref.delivered_packets, 0u);
    for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(k));
      const auto got = run(k);
      EXPECT_EQ(got.delivered_packets, ref.delivered_packets);
      EXPECT_EQ(got.delivered_payload_bits, ref.delivered_payload_bits);
      EXPECT_EQ(got.data_packets_sent, ref.data_packets_sent);
      EXPECT_EQ(got.acks_sent, ref.acks_sent);
      EXPECT_EQ(got.transmissions, ref.transmissions);
      EXPECT_DOUBLE_EQ(got.per_flow_goodput_kbps_mean,
                       ref.per_flow_goodput_kbps_mean);
      EXPECT_DOUBLE_EQ(got.jain_fairness, ref.jain_fairness);
      EXPECT_DOUBLE_EQ(got.p99_completion_s, ref.p99_completion_s);
      EXPECT_EQ(got.flows_completed, ref.flows_completed);
      EXPECT_DOUBLE_EQ(got.total_energy_j, ref.total_energy_j);
    }
  }
}

// The mobile tier under the same contract: per-shard trajectory
// replicas replay identical motion, and epoch-barrier migration re-homes
// drifted nodes without touching a draw stream — so the full metric
// vector, per-node energy included, is bit-equal for every K. 40
// simulated seconds of 1 m/s waypoint churn over a 400-node field
// crosses routing refreshes, halo growth and (at this speed) migration
// passes.
TEST(ShardDeterminism, MobileScenarioIsBitIdenticalAcrossShardCounts) {
  auto run = [](std::size_t shards) {
    auto sc = preset("scale_mobile");
    sc.net_size = 400;
    sc.seed = 5;
    sc.mac = mac::Mac::kTdmaReuse;
    sc.shards = shards;
    auto s = build(sc);
    s.network->run_until(40.0);
    return s.flows->collect(40.0);
  };
  const auto ref = run(1);
  EXPECT_GT(ref.delivered_packets, 0u);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    const auto got = run(k);
    EXPECT_EQ(got.delivered_packets, ref.delivered_packets);
    EXPECT_EQ(got.delivered_payload_bits, ref.delivered_payload_bits);
    EXPECT_EQ(got.data_packets_sent, ref.data_packets_sent);
    EXPECT_EQ(got.source_retransmissions, ref.source_retransmissions);
    EXPECT_EQ(got.acks_sent, ref.acks_sent);
    EXPECT_EQ(got.transmissions, ref.transmissions);
    EXPECT_EQ(got.queue_drops, ref.queue_drops);
    EXPECT_EQ(got.attempt_drops, ref.attempt_drops);
    EXPECT_EQ(got.cache_retransmissions, ref.cache_retransmissions);
    EXPECT_EQ(got.route_drops, ref.route_drops);
    EXPECT_DOUBLE_EQ(got.per_flow_goodput_kbps_mean,
                     ref.per_flow_goodput_kbps_mean);
    EXPECT_DOUBLE_EQ(got.total_energy_j, ref.total_energy_j);
    ASSERT_EQ(got.per_node_energy_j.size(), ref.per_node_energy_j.size());
    for (std::size_t i = 0; i < ref.per_node_energy_j.size(); ++i)
      ASSERT_DOUBLE_EQ(got.per_node_energy_j[i], ref.per_node_energy_j[i])
          << "node " << i;
  }
}

// CSMA's carrier splits into per-strip domains coupled by boundary
// mirrors; CCA reads and collision verdicts are computed over captured
// record geometry, so every verdict — and with it every counter and
// energy cell — must be K-invariant. The fan-in sink concentrates
// contention, and a 400-node field puts real traffic on the strip
// boundaries.
TEST(ShardDeterminism, CsmaScenarioIsBitIdenticalAcrossShardCounts) {
  auto run = [](std::size_t shards) {
    auto sc = preset("scale");
    sc.net_size = 400;
    sc.seed = 5;
    sc.mac = mac::Mac::kCsma;
    sc.shards = shards;
    auto s = build(sc);
    s.network->run_until(40.0);
    return s.flows->collect(40.0);
  };
  const auto ref = run(1);
  EXPECT_GT(ref.delivered_packets, 0u);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    const auto got = run(k);
    EXPECT_EQ(got.delivered_packets, ref.delivered_packets);
    EXPECT_EQ(got.delivered_payload_bits, ref.delivered_payload_bits);
    EXPECT_EQ(got.data_packets_sent, ref.data_packets_sent);
    EXPECT_EQ(got.acks_sent, ref.acks_sent);
    EXPECT_EQ(got.transmissions, ref.transmissions);
    EXPECT_EQ(got.queue_drops, ref.queue_drops);
    EXPECT_EQ(got.attempt_drops, ref.attempt_drops);
    EXPECT_EQ(got.route_drops, ref.route_drops);
    EXPECT_DOUBLE_EQ(got.total_energy_j, ref.total_energy_j);
    ASSERT_EQ(got.per_node_energy_j.size(), ref.per_node_energy_j.size());
    for (std::size_t i = 0; i < ref.per_node_energy_j.size(); ++i)
      ASSERT_DOUBLE_EQ(got.per_node_energy_j[i], ref.per_node_energy_j[i])
          << "node " << i;
  }
}

}  // namespace
}  // namespace jtp::exp
