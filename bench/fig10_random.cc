// Figure 10 (paper §6.1.2): static random topologies, JTP vs ATP vs TCP.
//
// The "random" ScenarioSpec preset: nodes placed uniformly in a field
// sized for connectivity w.h.p.; 5 simultaneous flows between random
// (distinct) endpoints. All protocols run under identical conditions in
// each run (same placement, same flow endpoints, same seeds), as the
// paper requires for comparability.
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
  spec.seed = seed;  // same seed for all protocols => same placement/flows
  auto s = exp::build(spec);
  s.network->run_until(duration);
  return s.flows->collect(duration);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::size_t n_runs = opt.pick_runs(3, 10);
  const double duration = opt.pick_duration(1000.0, 4000.0);

  auto base = exp::preset("random");
  bench::apply_scenario(opt, base);
  const auto protos =
      opt.protos_or({exp::Proto::kJtp, exp::Proto::kAtp, exp::Proto::kTcp});
  const auto sizes = bench::sweep_or<std::size_t>(
      opt, "net_size", base.net_size, {10, 15, 20, 25});

  std::printf("=== Figure 10: static random topologies ===\n");
  std::printf("5 random flows, %.0f s, %zu runs, 95%% CI\n\n", duration,
              n_runs);
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
  std::printf("\nexpected shape: jtp outperforms atp and tcp in both "
              "metrics across all sizes.\n");
  return 0;
}
