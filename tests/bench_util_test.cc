// Tests for the shared bench flag parser and CSV path helpers.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "bench_util.h"

namespace jtp::bench {
namespace {

ParseResult parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return parse_args(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

TEST(ParseArgs, Defaults) {
  const auto r = parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.options.full);
  EXPECT_EQ(r.options.seed, 1u);
  EXPECT_FALSE(r.options.runs.has_value());
  EXPECT_TRUE(r.options.csv_path.empty());
  EXPECT_EQ(r.options.jobs, 0u);
}

TEST(ParseArgs, AllFlags) {
  const auto r =
      parse({"--full", "--seed", "42", "--runs", "7", "--jobs", "3", "--csv",
             "out.csv"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options.full);
  EXPECT_EQ(r.options.seed, 42u);
  EXPECT_EQ(r.options.runs, std::optional<std::size_t>(7));
  EXPECT_EQ(r.options.jobs, 3u);
  EXPECT_EQ(r.options.csv_path, "out.csv");
}

TEST(ParseArgs, HelpRequested) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
}

TEST(ParseArgs, UnknownFlagIsError) {
  const auto r = parse({"--bogus"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--bogus"), std::string::npos);
}

TEST(ParseArgs, MissingValueIsError) {
  EXPECT_FALSE(parse({"--seed"}).ok());
  EXPECT_FALSE(parse({"--runs"}).ok());
  EXPECT_FALSE(parse({"--jobs"}).ok());
  EXPECT_FALSE(parse({"--csv"}).ok());
}

TEST(ParseArgs, NonNumericValueIsError) {
  EXPECT_FALSE(parse({"--seed", "abc"}).ok());
  EXPECT_FALSE(parse({"--runs", "3x"}).ok());
  EXPECT_FALSE(parse({"--jobs", ""}).ok());
}

TEST(ParseArgs, NegativeValueIsError) {
  // strtoull would silently wrap "-1" to 2^64-1 (and then e.g.
  // vector(n_runs) aborts); the parser must reject the sign up front.
  EXPECT_FALSE(parse({"--runs", "-1"}).ok());
  EXPECT_FALSE(parse({"--seed", "-7"}).ok());
  EXPECT_FALSE(parse({"--jobs", "-4"}).ok());
  EXPECT_FALSE(parse({"--runs", "+3"}).ok());
  EXPECT_FALSE(parse({"--runs", " 3"}).ok());
}

TEST(ParseArgs, ZeroRunsIsError) {
  EXPECT_FALSE(parse({"--runs", "0"}).ok());
}

TEST(ParseArgs, PositionalArgumentIsError) {
  EXPECT_FALSE(parse({"quick"}).ok());
}

TEST(ParseArgs, ProtoFlagParsesKnownNames) {
  const auto r = parse({"--proto", "atp"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.options.proto.has_value());
  EXPECT_EQ(*r.options.proto, exp::Proto::kAtp);
  EXPECT_FALSE(parse({}).options.proto.has_value());  // default: unset
}

TEST(ParseArgs, ProtoFlagRejectsUnknownNames) {
  const auto r = parse({"--proto", "quic"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("quic"), std::string::npos);
  EXPECT_FALSE(parse({"--proto"}).ok());  // missing value
}

TEST(ParseArgs, ScenarioFlagValidatesTokens) {
  const auto ok = parse({"--scenario", "net_size=8,loss_good=0.1"});
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.options.scenario, "net_size=8,loss_good=0.1");

  EXPECT_FALSE(parse({"--scenario", "bogus_key=1"}).ok());
  EXPECT_FALSE(parse({"--scenario", "net_size=zero"}).ok());
  EXPECT_FALSE(parse({"--scenario"}).ok());  // missing value
  // shards= is the one shard knob, and only static tdma/tdma_reuse runs
  // take shards > 1.
  EXPECT_TRUE(parse({"--scenario", "shards=2"}).ok());
  EXPECT_FALSE(parse({"--scenario", "mac=csma,shards=2"}).ok());
  EXPECT_FALSE(parse({"--scenario", "speed=1,shards=2"}).ok());
  EXPECT_FALSE(parse({"--shards", "2"}).ok());
}

TEST(ParseArgs, ScenarioFlagRejectsProtoAndSeedKeys) {
  // proto= would bypass per-bench protocol guards; seed= would be
  // silently overwritten by the per-run seed derivation.
  const auto p = parse({"--scenario", "proto=tcp"});
  EXPECT_FALSE(p.ok());
  EXPECT_NE(p.error.find("--proto"), std::string::npos);
  const auto s = parse({"--scenario", "net_size=5,seed=9"});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error.find("--seed"), std::string::npos);
}

TEST(SweepOr, CollapsesOnlyWhenOverridden) {
  const std::vector<std::size_t> sweep{2, 4, 8};
  Options o;
  EXPECT_EQ(sweep_or<std::size_t>(o, "net_size", 5, sweep), sweep);
  o.scenario = "net_size=12";
  EXPECT_EQ(sweep_or<std::size_t>(o, "net_size", 12, sweep),
            std::vector<std::size_t>{12});  // override wins
}

// The collapse keys on the token, not on the value: an explicit
// key=value equal to the bench default still pins the sweep to it.
TEST(SweepOr, DefaultValuedKeyStillCollapses) {
  const auto scale = exp::preset("scale");
  const std::vector<mac::Mac> macs{mac::Mac::kTdma, mac::Mac::kTdmaReuse,
                                   mac::Mac::kCsma};
  Options o;
  o.scenario = "scale_mobile, net_size = 100 ,mac=tdma";
  EXPECT_EQ(sweep_or(o, "mac", scale.mac, macs),
            std::vector<mac::Mac>{mac::Mac::kTdma});
  EXPECT_EQ(sweep_or<std::size_t>(o, "net_size", scale.net_size, {100, 400}),
            std::vector<std::size_t>{100});
}

TEST(SweepOr, UnsetKeyKeepsTheSweep) {
  Options o;
  o.scenario = "net_size=12,speed=1";
  EXPECT_EQ(sweep_or<std::size_t>(o, "cache_size", 8, {1, 8}),
            (std::vector<std::size_t>{1, 8}));
  // A key is matched whole, never by prefix or by its value.
  o.scenario = "net_size_x=1,mac=net_size";
  EXPECT_FALSE(scenario_sets(o, "net_size"));
}

TEST(SweepOr, PresetTokenAloneKeepsTheSweep) {
  Options o;
  o.scenario = "scale_mobile";
  EXPECT_FALSE(scenario_sets(o, "speed"));
  EXPECT_EQ(sweep_or(o, "speed", 1.0, {0.1, 1.0, 5.0}),
            (std::vector<double>{0.1, 1.0, 5.0}));
}

TEST(Options, ProtoHelpers) {
  Options o;
  const std::vector<exp::Proto> defaults{exp::Proto::kJtp, exp::Proto::kTcp};
  EXPECT_EQ(o.protos_or(defaults), defaults);
  EXPECT_EQ(o.proto_or(exp::Proto::kJtp), exp::Proto::kJtp);
  o.proto = exp::Proto::kAtp;
  EXPECT_EQ(o.protos_or(defaults),
            std::vector<exp::Proto>{exp::Proto::kAtp});
  EXPECT_EQ(o.proto_or(exp::Proto::kJtp), exp::Proto::kAtp);
}

TEST(Options, PickRunsPrecedence) {
  Options o;
  EXPECT_EQ(o.pick_runs(3, 20), 3u);
  o.full = true;
  EXPECT_EQ(o.pick_runs(3, 20), 20u);
  o.runs = 7;
  EXPECT_EQ(o.pick_runs(3, 20), 7u);  // --runs wins over --full
}

TEST(CsvSectionPath, InsertsBeforeExtension) {
  EXPECT_EQ(csv_section_path("out.csv", "a"), "out.a.csv");
  EXPECT_EQ(csv_section_path("dir/out.csv", "b"), "dir/out.b.csv");
}

TEST(CsvSectionPath, EmptySectionKeepsBase) {
  EXPECT_EQ(csv_section_path("out.csv", ""), "out.csv");
}

TEST(CsvSectionPath, NoExtensionAppends) {
  EXPECT_EQ(csv_section_path("out", "a"), "out.a");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(csv_section_path("some.dir/out", "a"), "some.dir/out.a");
}

}  // namespace
}  // namespace jtp::bench
