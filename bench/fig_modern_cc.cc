// Modern congestion control vs the paper's protocols, across scenario
// families and MAC disciplines.
//
// The paper's evaluation predates delivery-rate congestion control; this
// bench sets its protocols (jtp, tcp, atp) against the two transports
// built on core/rate_sample.h — jtp_dr (JTP's PI²/MD fed by the
// sender-side delivery-rate estimate) and bbr (model-based pacing over
// the TCP-SACK feedback channel) — under identical conditions: one
// section per preset (linear, random, mobile, scale), one row per MAC,
// same seeds for every protocol.
//
// A bare preset name as the first --scenario token collapses the section
// list to that preset (CI runs `--runs 1 --scenario scale` as a smoke).
// Under --scenario shards=N (N > 1) a section or MAC row the shard rule
// rejects (the mobile preset, mac=csma) is skipped with one printed line
// naming the reason.
// Per-protocol columns: delivered packets, mean per-flow goodput, and
// Jain's fairness index over per-flow delivered packets.
//
// Like scale_sweep, this bench is excluded from the committed-baseline
// suite: it exists for cross-protocol comparison, not regression pinning
// (its protocol set is expected to keep growing).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"

using namespace jtp;

namespace {

struct PresetPlan {
  const char* name;
  double quick_s;
  double full_s;
};

// The scale preset runs 100 nodes with an 8-way fan-in — 60 simulated
// seconds already separates the controllers (same operating point as
// scale_sweep's quick tier); the small paper presets need the long
// horizon for loss/mobility episodes to matter.
constexpr PresetPlan kPresets[] = {
    {"linear", 1000.0, 4000.0},
    {"random", 1000.0, 4000.0},
    {"mobile", 1000.0, 4000.0},
    {"scale", 60.0, 300.0},
};

exp::RunMetrics one_run(exp::ScenarioSpec spec, exp::Proto proto,
                        std::uint64_t seed, double duration) {
  spec.proto = proto;
  spec.seed = seed;  // same seed for every protocol => same substrate
  auto s = exp::build(spec);
  s.network->run_until(duration);
  return s.flows->collect(duration);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::size_t n_runs = opt.pick_runs(1, 3);

  const auto protos = opt.protos_or({exp::Proto::kJtp, exp::Proto::kTcp,
                                     exp::Proto::kAtp, exp::Proto::kJtpDr,
                                     exp::Proto::kBbr});

  // A bare preset name leading --scenario selects that single section.
  std::string only_preset;
  if (!opt.scenario.empty()) {
    const auto head = opt.scenario.substr(0, opt.scenario.find(','));
    if (head.find('=') == std::string::npos) only_preset = head;
  }

  std::printf("=== Modern congestion control vs paper protocols ===\n");
  std::printf("%zu run(s) per cell; same seeds across protocols\n\n",
              n_runs);

  for (const auto& plan : kPresets) {
    if (!only_preset.empty() && only_preset != plan.name) continue;
    auto base = exp::preset(plan.name);
    // Overlay the tokens unvalidated first: a section the shard rule
    // rejects is skipped here, while apply_scenario still exits 2 on any
    // other conflict.
    auto probe = base;
    exp::apply_scenario_tokens(probe, opt.scenario);
    if (bench::skip_unshardable(probe, std::string("preset=") + plan.name))
      continue;
    bench::apply_scenario(opt, base);
    const double duration = opt.full ? plan.full_s : plan.quick_s;

    std::vector<mac::Mac> macs;
    for (const mac::Mac m : bench::sweep_or<mac::Mac>(
             opt, "mac", base.mac,
             std::vector<mac::Mac>(mac::kAllMacs.begin(),
                                   mac::kAllMacs.end()))) {
      auto spec = base;
      spec.mac = m;
      const auto leg = std::string("preset=") + plan.name +
                       " mac=" + mac::mac_name(m);
      if (!bench::skip_unshardable(spec, leg)) macs.push_back(m);
    }

    std::vector<sim::Column> cols{{"mac", 0}};
    for (const auto p : protos)
      cols.push_back({exp::proto_name(p) + "_pkts", 0});
    for (const auto p : protos)
      cols.push_back({exp::proto_name(p) + "_kbps", 3, true});
    for (const auto p : protos)
      cols.push_back({exp::proto_name(p) + "_jain", 3});
    char title[96];
    std::snprintf(title, sizeof title, "preset=%s, %.0f s simulated",
                  plan.name, duration);
    auto rep = bench::make_report(opt, title, std::move(cols), 15,
                                  plan.name);
    rep.begin();

    for (const mac::Mac m : macs) {
      auto spec = base;
      spec.mac = m;

      std::vector<sim::Cell> row{mac::mac_name(m)};
      std::vector<sim::Cell> goodput, jain;
      for (const auto proto : protos) {
        auto runs = exp::run_seeds(
            n_runs, opt.seed,
            [&](std::uint64_t s) { return one_run(spec, proto, s, duration); },
            opt.jobs);
        row.push_back(
            exp::aggregate(runs, [](const exp::RunMetrics& r) {
              return static_cast<double>(r.delivered_packets);
            }).mean);
        goodput.push_back(exp::aggregate(runs, [](const exp::RunMetrics& r) {
          return r.per_flow_goodput_kbps_mean;
        }));
        jain.push_back(
            exp::aggregate(runs, [](const exp::RunMetrics& r) {
              return r.jain_fairness;
            }).mean);
      }
      row.insert(row.end(), goodput.begin(), goodput.end());
      for (auto& c : jain) row.push_back(std::move(c));
      rep.row(std::move(row));
    }
    bench::finish_report(rep);
    std::printf("\n");
  }
  std::printf(
      "expected shape: jtp_dr and bbr match or beat tcp goodput on the\n"
      "scale preset under tdma_reuse (the delivery-rate model finds the\n"
      "reuse frame's capacity without loss-driven probing); jtp keeps its\n"
      "energy-per-bit edge everywhere it has in-network help.\n");
  return 0;
}
