// Figure 3 (paper §3): adjustable reliability levels jtp0 / jtp10 / jtp20.
//
// (a) Total energy spent for a fixed-size transfer vs network size.
// (b) Data delivered to the application vs network size, against the
//     80% / 90% application-requirement lines.
// (c) Max number of link-layer (re)transmissions assigned per packet over
//     time at the third node of a 4-node path.
//
// Expected shape: energy(jtp20) < energy(jtp10) < energy(jtp0); delivered
// data stays above the requirement line for each tolerance.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"
#include "sim/stats.h"

using namespace jtp;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::require_proto(opt, exp::Proto::kJtp,
                       "Figure 3 sweeps JTP's loss-tolerance knob");
  const std::size_t n_runs = opt.pick_runs(3, 20);
  const std::uint64_t k = opt.full ? 1600 : 400;
  const double horizon = opt.full ? 8000.0 : 4000.0;

  // Bare linear substrate (flows are attached per tolerance level below);
  // residual loss high enough that the attempt budget differs across
  // tolerance levels even in the good state.
  exp::ScenarioSpec base;
  base.loss_good = 0.15;
  bench::apply_scenario(opt, base);

  std::printf("=== Figure 3: adjustable reliability (jtp0/jtp10/jtp20) ===\n");
  std::printf("transfer=%llu pkts x 800 B, linear nets, %zu runs\n\n",
              static_cast<unsigned long long>(k), n_runs);

  const std::vector<double> tolerances = {0.0, 0.10, 0.20};
  const auto sizes =
      bench::sweep_or<std::size_t>(opt, "net_size", base.net_size,
                                   {2, 3, 4, 5, 6, 7, 8, 9});

  auto rep = bench::make_report(
      opt, "",
      {{"net_size", 0},
       {"jtp0_energy_j", 3, true},
       {"jtp10_energy_j", 3, true},
       {"jtp20_energy_j", 3, true},
       {"jtp0_kbit", 3, true},
       {"jtp10_kbit", 3, true},
       {"jtp20_kbit", 3, true}},
      17);
  rep.begin();

  for (std::size_t n : sizes) {
    std::vector<sim::Cell> row{n};
    std::vector<sim::Cell> kb_cells;
    for (double lt : tolerances) {
      auto runs = exp::run_seeds(
          n_runs, opt.seed,
          [&](std::uint64_t s) {
            auto spec = base;
            spec.seed = s + static_cast<std::uint64_t>(lt * 1000);
            spec.net_size = n;
            auto scenario = exp::build(spec);
            exp::FlowOptions fo;
            fo.loss_tolerance = lt;
            scenario.flows->create(0, static_cast<core::NodeId>(n - 1), k,
                                   0.0, fo);
            scenario.network->run_until(horizon);
            return scenario.flows->collect(horizon);
          },
          opt.jobs);
      row.push_back(exp::aggregate(runs, [](const exp::RunMetrics& m) {
        return m.total_energy_j;
      }));
      kb_cells.push_back(exp::aggregate(runs, [](const exp::RunMetrics& m) {
        return m.delivered_kbit();
      }));
    }
    row.insert(row.end(), kb_cells.begin(), kb_cells.end());
    rep.row(std::move(row));
  }
  bench::finish_report(rep);
  const double total_kb = static_cast<double>(k) * 800 * 8 / 1e3;
  std::printf("\napplication requirement lines: 90%% = %.0f kb, 80%% = %.0f kb"
              " (of %.0f kb offered)\n",
              0.9 * total_kb, 0.8 * total_kb, total_kb);

  // ---- (c) per-packet attempt budget at the 3rd node of a 4-node path ----
  std::printf("\n");
  auto repc = bench::make_report(
      opt, "Fig 3(c): attempt budget assigned at node 2 of a 4-node path "
           "(jtp10)",
      {{"time_s", 1}, {"max_attempts", 0}}, 13, "attempts");
  {
    exp::ScenarioSpec spec;  // substrate defaults (loss_good 0.05)
    bench::apply_scenario(opt, spec);
    spec.seed = opt.seed;
    spec.net_size = 4;
    auto scenario = exp::build(spec);
    exp::FlowOptions fo;
    fo.loss_tolerance = 0.10;
    scenario.flows->create(0, 3, 0, 0.0, fo);  // long-lived
    std::vector<std::pair<double, int>> trace;
    scenario.network->mac_of(2).set_attempt_trace(
        [&](sim::Time t, const core::Packet&, int m) {
          trace.push_back({t, m});
        });
    scenario.network->run_until(opt.full ? 1200.0 : 400.0);
    repc.begin();
    std::printf("(stdout shows every 10th packet; the CSV has all)\n");
    for (std::size_t i = 0; i < trace.size(); ++i)
      repc.row({trace[i].first, trace[i].second}, /*echo=*/i % 10 == 0);
    bench::finish_report(repc);
    sim::Summary s;
    for (auto& [t, m] : trace) s.add(m);
    std::printf("mean attempt budget: %.2f (min %.0f, max %.0f, %zu pkts)\n",
                s.mean(), s.min(), s.max(), trace.size());
  }
  return 0;
}
