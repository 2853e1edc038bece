// Figure 9 (paper §6.1.1): JTP vs ATP vs TCP-SACK on linear topologies.
//
// The "linear" ScenarioSpec preset: two competing full-reliability flows
// between the chain's ends; links alternate between good and bad states
// (Gilbert–Elliott, 10% bad, 3 s mean bad dwell). Reported: (a) energy
// per delivered bit, (b) average per-flow goodput, both with 95% CIs.
//
// Expected shape: JTP lowest energy/bit at every size, with ATP ~2x and
// TCP ~5x JTP by the longest paths; JTP also highest goodput.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"

using namespace jtp;

namespace {

exp::RunMetrics one_run(exp::ScenarioSpec spec, std::size_t n,
                        exp::Proto proto, std::uint64_t seed,
                        double duration) {
  spec.net_size = n;
  spec.proto = proto;
  spec.seed = seed;
  auto s = exp::build(spec);
  s.network->run_until(duration);
  return s.flows->collect(duration);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::size_t n_runs = opt.pick_runs(5, 20);
  const double duration = opt.pick_duration(800.0, 2500.0);

  auto base = exp::preset("linear");
  bench::apply_scenario(opt, base);
  const auto protos =
      opt.protos_or({exp::Proto::kJtp, exp::Proto::kAtp, exp::Proto::kTcp});
  const auto sizes =
      bench::sweep_or<std::size_t>(opt, "net_size", base.net_size,
                                   {2, 3, 4, 5, 6, 7, 8, 9, 10});

  std::printf("=== Figure 9: linear topologies, JTP vs ATP vs TCP-SACK ===\n");
  std::printf("2 competing flows, Gilbert links (10%% bad / 3 s), %.0f s, "
              "%zu runs, 95%% CI\n\n", duration, n_runs);
  std::printf("E/b = energy per delivered bit (uJ/bit)\n");

  std::vector<sim::Column> cols{{"net_size", 0}};
  for (const auto p : protos)
    cols.push_back({exp::proto_name(p) + "_uj_per_bit", 1, true});
  for (const auto p : protos)
    cols.push_back({exp::proto_name(p) + "_kbps", 3, true});
  auto rep = bench::make_report(opt, "", std::move(cols), 15);
  rep.begin();

  for (std::size_t n : sizes) {
    std::vector<sim::Cell> row{n};
    std::vector<sim::Cell> goodput_cells;
    for (const auto proto : protos) {
      auto runs = exp::run_seeds(
          n_runs, opt.seed,
          [&](std::uint64_t s) {
            return one_run(base, n, proto, s, duration);
          },
          opt.jobs);
      row.push_back(exp::aggregate(runs, [](const exp::RunMetrics& m) {
        return m.energy_per_bit_uj();
      }));
      goodput_cells.push_back(
          exp::aggregate(runs, [](const exp::RunMetrics& m) {
            return m.per_flow_goodput_kbps_mean;
          }));
    }
    row.insert(row.end(), goodput_cells.begin(), goodput_cells.end());
    rep.row(std::move(row));
  }
  bench::finish_report(rep);
  std::printf("\nexpected shape: jtp < atp < tcp on energy/bit (gap grows "
              "with path length); jtp highest goodput.\n");
  return 0;
}
