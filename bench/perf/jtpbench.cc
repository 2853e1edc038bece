// jtpbench: the repository benchmark (see README.md in this directory).
//
// One binary, two roles. The orchestrator (the default role) runs every
// execution as a fresh child process of this same binary, bounds it by a
// timeout, takes the child's CPU time and peak RSS from wait4(), checks
// the child's model digest, and prints medians and quartiles per metric.
// A child (--exec) builds one workload, runs it to its horizon, and prints
// flat "key value" lines ending in "end 1".
//
// Every layer is measured from outside the simulator: the harness times
// its own calls into exp::build, sim::Simulator::step and two probe
// kernels, and reads counters once a run has ended. It compiles only
// against the small surface README.md lists, so the layers behind it can
// be rewritten without touching the benchmark.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "mac/interference.h"
#include "routing/link_state.h"

using namespace jtp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// An execution that runs longer than this is killed and counted failed.
constexpr double kExecTimeoutS = 120.0;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// A workload is measured in cycles. One cycle is `execs` executions, each
// a fresh process on its own scenario seeds, and reports the median over
// them: the cost of one seed differs from the next by ~20% on the mobile
// workloads, so only a statistic over many seeds repeats from one --seed
// to the next. Horizons are sized so one cycle takes ~15 s on a 4-core
// host.
struct Workload {
  std::string name;
  std::string spec;  // exp::parse_scenario text; seed= and proto= appended
  double horizon_s;
  std::size_t seeds;  // scenario seeds per execution (< 100)
  std::vector<std::string> protos;  // one run per proto and seed; empty =
                                    // the spec's own proto
  std::size_t execs;  // executions per cycle
  std::string twin;   // K=1 workload whose model digest this one must equal
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"mobile_reuse", "scale_mobile,net_size=1000,mac=tdma_reuse", 20.0, 1,
       {}, 12, ""},
      {"mobile_csma", "scale_mobile,net_size=1000,mac=csma", 60.0, 1, {}, 20,
       ""},
      {"bursty_1k",
       "scale,net_size=1000,mac=tdma_reuse,workload=on_off,flows=64,"
       "transfer=50,burst_gap=30,window=550",
       300.0, 1, {}, 10, ""},
      {"bursty_1k_k4",
       "scale,net_size=1000,mac=tdma_reuse,workload=on_off,flows=64,"
       "transfer=50,burst_gap=30,window=550,shards=4",
       300.0, 1, {}, 14, "bursty_1k"},
      {"paper_sweep", "random", 4000.0, 20, {"jtp", "tcp", "atp"}, 11, ""},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

// Execution i of a run with --seed s draws scenario seeds
// exec_seed(s, i) + j for j < Workload::seeds: disjoint across executions
// and across --seed values.
std::uint64_t exec_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000000 + i * 100;
}

// One run's scenario, parsed (throws on a spec the library rejects).
exp::ScenarioSpec run_spec(const Workload& w, const std::string& proto,
                           std::uint64_t seed) {
  std::string text = w.spec;
  if (!proto.empty()) text += ",proto=" + proto;
  text += ",seed=" + std::to_string(seed);
  auto parsed = exp::parse_scenario(text);
  if (!parsed.ok())
    throw std::invalid_argument("workload " + w.name + ": " + parsed.error);
  return parsed.spec;
}

// The sharded runner cannot be stepped from outside.
bool steppable(const Workload& w) { return run_spec(w, "", 1).shards == 1; }

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Child: one execution
// ---------------------------------------------------------------------------

// Per-step spans of the traced run, classified by which public state the
// step changed (README.md, "Traced run").
enum Span : std::size_t {
  kMobility,   // root step that bumped Topology::generation()
  kSync,       // root step that bumped RoutingStats::refreshes
  kRootOther,  // any other root step
  kRow,        // node step that bumped RoutingStats::rows_built
  kAfterMove,  // first node step after a generation bump
  kData,       // every other node step
  kSpans
};
const char* const kSpanKey[kSpans] = {"phy.mobility", "routing.sync",
                                      "sim.root_other", "routing.row",
                                      "mac.after_move", "net.data"};

struct SpanAgg {
  std::uint64_t count = 0;
  double total_s = 0.0;
  std::array<std::uint64_t, 64> log2_ns{};  // bucket b: [2^b, 2^(b+1)) ns

  void add(std::uint64_t ns) {
    ++count;
    total_s += static_cast<double>(ns) * 1e-9;
    ++log2_ns[ns == 0 ? 0 : 63 - __builtin_clzll(ns)];
  }

  // Percentile `q` in ns, interpolated linearly inside its bucket.
  double percentile_ns(double q) const {
    const double rank = q * static_cast<double>(count);
    double below = 0.0;
    for (std::size_t b = 0; b < log2_ns.size(); ++b) {
      const double in = static_cast<double>(log2_ns[b]);
      if (in > 0.0 && below + in >= rank) {
        const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
        const double hi = std::ldexp(1.0, static_cast<int>(b) + 1);
        return lo + (hi - lo) * (rank - below) / in;
      }
      below += in;
    }
    return 0.0;
  }
};

struct Trace {
  std::array<SpanAgg, kSpans> spans;
  std::vector<double> build_s, collect_s;  // one per run
  double recolor_us = 0.0, row_us = 0.0, probe_s = 0.0;
};

// Steps the simulator from outside, one timed span per event. Starting
// with run_until(0) arms routing refresh and mobility exactly as an
// untraced run does. The MAC fabric's stats() is never read here: it
// recolors eagerly and would move the cost being measured.
void run_stepped(net::Network& net, double horizon, Trace& tr) {
  net.run_until(0.0);
  sim::Simulator& sim = net.simulator();
  const phy::Topology& topo = net.topology();
  const routing::RoutingStats& rs = net.routing().stats();
  bool moved = false;
  while (sim.pending() && sim.next_time() <= horizon) {
    const std::uint64_t gen = topo.generation();
    const std::uint64_t refreshes = rs.refreshes;
    const std::uint64_t rows = rs.rows_built;
    const auto t0 = Clock::now();
    sim.step();
    const auto t1 = Clock::now();
    const bool bumped = topo.generation() != gen;
    Span s;
    if (sim.context() == 0) {
      s = bumped ? kMobility : rs.refreshes != refreshes ? kSync : kRootOther;
    } else {
      s = rs.rows_built != rows ? kRow : moved ? kAfterMove : kData;
      moved = false;
    }
    moved = moved || bumped;
    tr.spans[s].add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  net.run_until(horizon);
}

// Probe: one full interference recolor of `topo`, median over >= 0.2 s of
// calls, in µs.
double probe_recolor_us(const phy::Topology& topo, double margin) {
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::milliseconds(200);
  do {
    const auto t0 = Clock::now();
    mac::color_interference(topo, margin);
    us.push_back(seconds_since(t0) * 1e6);
  } while (Clock::now() < stop || us.size() < 5);
  return median_of(us);
}

// Probe: one lazy routing row (a BFS from one source) on a fresh router
// over `topo`, median over >= 0.2 s of 200-source batches, in µs.
double probe_row_us(const phy::Topology& topo) {
  sim::Simulator sim;
  const std::size_t n = topo.size();
  const std::size_t sources = std::min<std::size_t>(200, n);
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::milliseconds(200);
  do {
    routing::LinkStateRouting router(sim, topo);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < sources; ++i)
      router.hops(static_cast<core::NodeId>(i * n / sources), 0);
    us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(sources));
  } while (Clock::now() < stop || us.size() < 5);
  return median_of(us);
}

// FNV-1a over the model outputs: a perf-only change must leave it intact.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

// Counters summed over an execution's runs (maxima for high-water marks).
using Counters = std::map<std::string, double>;

// Builds and runs one scenario to `horizon` and folds its counters into
// `c`. With a trace, the run is stepped and, on the execution's `last`
// run, the probes time its final topology.
void run_once(const Workload& w, const std::string& proto, std::uint64_t seed,
              double horizon, Trace* trace, bool last, Counters& c,
              Digest& digest) {
  const auto spec = run_spec(w, proto, seed);
  const auto t0 = Clock::now();
  auto s = exp::build(spec);
  const double build_s = seconds_since(t0);
  net::Network& net = *s.network;
  const std::uint64_t gen0 = net.topology().generation();
  if (trace)
    run_stepped(net, horizon, *trace);
  else
    net.run_until(horizon);
  const auto t1 = Clock::now();
  const exp::RunMetrics m = s.flows->collect(horizon);
  const double collect_s = seconds_since(t1);

  c["setup_s"] += build_s;
  c["model.delivered_pkts"] += static_cast<double>(m.delivered_packets);
  c["model.xmits"] += static_cast<double>(m.transmissions);
  c["model.energy_j"] += m.total_energy_j;
  c["model.bits"] += m.delivered_payload_bits;
  c["model.jain_sum"] += m.jain_fairness;
  c["runs"] += 1;
  digest.add(static_cast<std::uint64_t>(m.delivered_packets));
  digest.add(static_cast<std::uint64_t>(m.transmissions));
  digest.add(m.total_energy_j);
  digest.add(m.energy_per_bit_uj());
  digest.add(m.jain_fairness);
  for (double e : m.per_node_energy_j) digest.add(e);

  auto hw = [&c](const char* key, double v) { c[key] = std::max(c[key], v); };
  c["sim.events"] += static_cast<double>(net.total_events_executed());
  hw("sim.event_pool_hw",
     static_cast<double>(net.simulator().event_pool_stats().high_water));
  hw("sim.spill_hw",
     static_cast<double>(net.simulator().callback_spill_stats().high_water));
  c["phy.moves"] += static_cast<double>(net.topology().generation() - gen0);
  double deliveries = 0.0;
  for (core::NodeId i = 0; i < net.size(); ++i)
    deliveries += static_cast<double>(net.mac_of(i).deliveries());
  c["mac.xmits"] += static_cast<double>(net.total_transmissions());
  c["mac.deliveries"] += deliveries;
  c["mac.queue_drops"] += static_cast<double>(net.total_queue_drops());
  c["mac.attempt_drops"] += static_cast<double>(net.total_attempt_drops());
  const mac::MacStats ms = net.mac_fabric().stats();  // the run has ended
  c["mac.recolors"] += static_cast<double>(ms.recolors);
  hw("mac.colors", static_cast<double>(ms.colors_used));
  const routing::RoutingStats& rs = net.routing().stats();
  c["routing.refreshes"] += static_cast<double>(rs.refreshes);
  c["routing.snapshots"] += static_cast<double>(rs.snapshots);
  c["routing.rows_built"] += static_cast<double>(rs.rows_built);
  c["routing.row_reuses"] += static_cast<double>(rs.row_reuses);
  c["net.route_drops"] += static_cast<double>(net.total_route_drops());
  c["net.cache_rtx"] += static_cast<double>(net.total_cache_retransmissions());
  hw("net.pkt_pool_hw",
     static_cast<double>(net.packet_pool().stats().high_water));
  for (const auto& f : s.flows->flows()) {
    c["core.flows"] += 1;
    c["core.flows_done"] += f->finished() ? 1 : 0;
    c["core.data_sent"] += static_cast<double>(f->data_sent());
    c["core.source_rtx"] += static_cast<double>(f->source_rtx());
    c["core.acks"] += static_cast<double>(f->acks_sent());
    c["core.delivered"] += static_cast<double>(f->delivered_packets());
  }

  if (trace) {
    trace->build_s.push_back(build_s);
    trace->collect_s.push_back(collect_s);
    if (last) {
      const auto p0 = Clock::now();
      trace->recolor_us = probe_recolor_us(net.topology(), spec.reuse_margin);
      trace->row_us = probe_row_us(net.topology());
      trace->probe_s = seconds_since(p0);
    }
  }
}

std::string join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : ",") + fmt(x);
  return s;
}

// Runs one execution and prints its "key value" lines.
void exec_child(const Workload& w, std::uint64_t seed, double scale,
                bool traced) {
  Counters c;
  Digest digest;
  Trace trace;
  const std::vector<std::string> protos =
      w.protos.empty() ? std::vector<std::string>{""} : w.protos;
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < w.seeds; ++j)
    for (std::size_t p = 0; p < protos.size(); ++p)
      run_once(w, protos[p], seed + j, w.horizon_s * scale,
               traced ? &trace : nullptr,
               j + 1 == w.seeds && p + 1 == protos.size(), c, digest);
  c["wall_s"] = seconds_since(t0) - trace.probe_s;

  c["model.uj_per_bit"] = ratio(c["model.energy_j"] * 1e6, c["model.bits"]);
  c["model.jain"] = c["model.jain_sum"] / c["runs"];
  if (traced) {
    for (std::size_t k = 0; k < kSpans; ++k) {
      c[std::string(kSpanKey[k]) + "_s"] = trace.spans[k].total_s;
      c[std::string(kSpanKey[k]) + "_n"] =
          static_cast<double>(trace.spans[k].count);
    }
    c["net.data_ns_p50"] = trace.spans[kData].percentile_ns(0.50);
    c["net.data_ns_p99"] = trace.spans[kData].percentile_ns(0.99);
    c["exp.build_s"] = c["setup_s"];
    c["exp.collect_s"] = 0.0;
    for (double x : trace.collect_s) c["exp.collect_s"] += x;
    c["mac.recolor_us"] = trace.recolor_us;
    c["routing.row_us"] = trace.row_us;
  }
  for (const auto& [k, v] : c)
    std::printf("%s %s\n", k.c_str(), fmt(v).c_str());
  std::printf("model.digest %016llx\n",
              static_cast<unsigned long long>(digest.h));
  if (traced) {
    std::printf("trace.build_s %s\n", join(trace.build_s).c_str());
    std::printf("trace.collect_s %s\n", join(trace.collect_s).c_str());
  }
  std::printf("end 1\n");
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

struct Exec {
  std::uint64_t seed = 0;
  bool ok = false;
  bool timed_out = false;
  std::string error;
  std::map<std::string, std::string> kv;
  double cpu_s = 0.0, rss_mb = 0.0;
  int cpu = -1;  // the CPU the execution was pinned to, -1 = none

  double num(const std::string& k) const {
    const auto it = kv.find(k);
    return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  }
  std::string str(const std::string& k) const {
    const auto it = kv.find(k);
    return it == kv.end() ? "" : it->second;
  }
};

// Times a fixed pointer chase through 1 MiB on the calling thread's CPU.
double chase_s() {
  static const std::vector<std::uint32_t> next = [] {
    const std::uint32_t n = 1u << 18;
    std::vector<std::uint32_t> order(n), nx(n);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin() + 1, order.end(), std::mt19937(1));
    for (std::uint32_t i = 0; i < n; ++i) nx[order[i]] = order[(i + 1) % n];
    return nx;
  }();
  std::uint32_t i = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < 100000; ++k) i = next[i];
  const double s = seconds_since(t0);
  return i == next.size() ? 0.0 : s;  // consumes i: the chase is kept
}

// On a shared host a single vCPU slows by up to ~50% for seconds at a time
// while the others stay fast (README.md, "Noise"). Returns the allowed CPU
// on which the chase currently runs fastest, or -1.
int fastest_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int best = -1;
  double best_s = 0.0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double s = std::min(chase_s(), chase_s());
    if (best < 0 || s < best_s) {
      best = c;
      best_s = s;
    }
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  return best;
}

// Runs this binary with `args` as a child process pinned to `cpu` (unless
// negative), reading its stdout; kills it after kExecTimeoutS. CPU time
// and peak RSS come from wait4().
Exec spawn(const std::vector<std::string>& args, int cpu) {
  Exec r;
  r.cpu = cpu;
  int fds[2];
  if (pipe(fds) != 0) {
    r.error = std::string("pipe: ") + std::strerror(errno);
    return r;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    r.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return r;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    std::vector<char*> argv;
    static char self[] = "jtpbench";
    argv.push_back(self);
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kExecTimeoutS));
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      r.timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready =
        poll(&p, 1, static_cast<int>(std::min<long long>(left, 1000)));
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0)
      out.append(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR)
      break;
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux

  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    const auto sp = line.find(' ');
    if (sp != std::string::npos) r.kv[line.substr(0, sp)] = line.substr(sp + 1);
  }
  if (r.timed_out)
    r.error = "timed out after " + fmt(kExecTimeoutS) + " s";
  else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    r.error = "exit status " + std::to_string(status);
  else if (!r.kv.count("end"))
    r.error = "truncated output";
  r.ok = r.error.empty();
  return r;
}

struct Options {
  std::uint64_t seed = 1;
  std::vector<std::string> workloads;  // empty = all
  // Seven cycles spread a set over ~10 minutes, so its medians span more
  // than one of the host's speed regimes.
  std::size_t reps = 7;
  std::string out;
  bool trace = true;
  bool smoke = false;
  double seconds = 0.0;  // > 0: one time-boxed workload (BENCHMARK.json)
  int trace_flag = -1;   // with --seconds: 0 end-to-end, 1 per-layer
  std::string git_sha = "unknown";
};

// --smoke runs every horizon at 1/20.
double horizon_scale(const Options& o) { return o.smoke ? 0.05 : 1.0; }

double horizon(const Options& o, const Workload& w) {
  return w.horizon_s * horizon_scale(o);
}

Exec run_exec(const Options& o, const Workload& w, std::uint64_t seed,
              bool traced) {
  std::vector<std::string> args = {"--exec", w.name, "--seed",
                                   std::to_string(seed), "--scale",
                                   fmt(horizon_scale(o))};
  if (traced) args.push_back("--traced");
  // A K=1 execution runs on one thread: give it the fastest CPU. The
  // sharded workload needs all of them.
  Exec e = spawn(args, steppable(w) ? fastest_cpu() : -1);
  e.seed = seed;
  if (!e.ok)
    std::fprintf(stderr, "jtpbench: %s seed %llu%s failed: %s\n",
                 w.name.c_str(), static_cast<unsigned long long>(seed),
                 traced ? " (traced)" : "", e.error.c_str());
  return e;
}

std::size_t cycle_size(const Options& o, const Workload& w) {
  return o.smoke ? std::min<std::size_t>(w.execs, 2) : w.execs;
}

// Everything one workload ran in a set or a time-boxed run.
struct Runs {
  const Workload* w = nullptr;
  std::vector<std::vector<Exec>> cycles;  // untraced, for end-to-end
  // The per-layer pass over the first half of the seeds: each seed
  // untraced (`layer`), then traced (K=1 only), back to back.
  std::vector<Exec> layer, traced;
  std::vector<Exec> repeat;  // seed 0 again when nothing else repeats it
  std::vector<Exec> twin;    // the K=1 twin's seed-0 execution
};

// Every execution seed of the run once, untraced. A timeout ends the
// cycle early, so one hung execution cannot stall the whole run.
std::vector<Exec> run_cycle(const Options& o, const Workload& w) {
  std::vector<Exec> cycle;
  for (std::size_t i = 0; i < cycle_size(o, w); ++i) {
    cycle.push_back(run_exec(o, w, exec_seed(o.seed, i), false));
    if (cycle.back().timed_out) break;
  }
  return cycle;
}

// The per-layer pass. Pairing each traced execution with an untraced one
// of the same seed, adjacent in time, keeps host drift out of
// exp.trace_overhead; covering half the seeds keeps the pass at about one
// cycle.
void run_layer(const Options& o, Runs& r) {
  const bool stepped = steppable(*r.w);
  for (std::size_t i = 0; i < (cycle_size(o, *r.w) + 1) / 2; ++i) {
    const std::uint64_t seed = exec_seed(o.seed, i);
    r.layer.push_back(run_exec(o, *r.w, seed, false));
    if (r.layer.back().timed_out) break;
    if (!stepped) continue;
    r.traced.push_back(run_exec(o, *r.w, seed, true));
    if (r.traced.back().timed_out) break;
  }
}

// The untraced seed-0 execution, if any ran.
const Exec* seed0(const Runs& r) {
  if (!r.cycles.empty() && !r.cycles.front().empty())
    return &r.cycles.front().front();
  return r.layer.empty() ? nullptr : &r.layer.front();
}

// Adds the repeat and twin checks `r` still lacks; `twin_runs` are the
// twin workload's own runs in this set, if it ran.
void add_checks(const Options& o, Runs& r, const Runs* twin_runs) {
  const std::uint64_t s0 = exec_seed(o.seed, 0);
  const std::size_t seed0_runs = r.cycles.size() + (r.layer.empty() ? 0 : 1) +
                                 (r.traced.empty() ? 0 : 1);
  if (seed0_runs < 2) r.repeat.push_back(run_exec(o, *r.w, s0, false));
  if (r.w->twin.empty()) return;
  const Exec* t = twin_runs ? seed0(*twin_runs) : nullptr;
  r.twin.push_back(
      t ? *t : run_exec(o, *find_workload(r.w->twin), s0, false));
}

// --- statistics -----------------------------------------------------------

struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

// Quartiles as Python's statistics.quantiles(values, n=4) gives them
// (its default "exclusive" method).
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median_of(v);
  if (v.size() == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const long ld = static_cast<long>(v.size());
  auto q = [&](long i) {
    const long j = std::clamp(i * (ld + 1) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = q(1);
  s.q3 = q(3);
  return s;
}

double value_of(const Exec& e, const std::string& key) {
  return key == "cpu_s" ? e.cpu_s : key == "peak_rss_mb" ? e.rss_mb : e.num(key);
}

std::vector<double> values_of(const std::vector<Exec>& v,
                              const std::string& key) {
  std::vector<double> out;
  for (const auto& e : v)
    if (e.ok) out.push_back(value_of(e, key));
  return out;
}

// Mean of `key` over the successful executions of `v`.
double mean_of(const std::vector<Exec>& v, const std::string& key) {
  const auto x = values_of(v, key);
  double sum = 0.0;
  for (double d : x) sum += d;
  return x.empty() ? 0.0 : sum / static_cast<double>(x.size());
}

// --- metrics --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}};

const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},         {"sim.ns_per_event", "ns"},
    {"sim.event_pool_hw", "count"},  {"sim.spill_hw", "count"},
    {"sim.replication", "ratio"},    {"sim.root_other_s", "s"},
    {"phy.moves", "count"},          {"phy.mobility_s", "s"},
    {"mac.xmits", "count"},          {"mac.delivery_ratio", "ratio"},
    {"mac.queue_drops", "count"},    {"mac.attempt_drops", "count"},
    {"mac.recolors", "count"},       {"mac.colors", "count"},
    {"mac.after_move_s", "s"},       {"mac.recolor_us", "us"},
    {"mac.recolor_est_s", "s"},      {"routing.refreshes", "count"},
    {"routing.snapshots", "count"},  {"routing.rows_built", "count"},
    {"routing.row_reuses", "count"}, {"routing.row_hit_ratio", "ratio"},
    {"routing.sync_s", "s"},         {"routing.row_s", "s"},
    {"routing.row_us", "us"},        {"routing.row_est_s", "s"},
    {"net.data_s", "s"},             {"net.data_ns_p50", "ns"},
    {"net.data_ns_p99", "ns"},       {"net.route_drops", "count"},
    {"net.cache_rtx", "count"},      {"net.pkt_pool_hw", "count"},
    {"core.flows", "count"},         {"core.flows_done", "count"},
    {"core.data_sent", "count"},     {"core.source_rtx", "count"},
    {"core.acks", "count"},          {"core.delivered", "count"},
    {"core.useful_ratio", "ratio"},  {"exp.build_s", "s"},
    {"exp.collect_s", "s"},          {"exp.trace_overhead", "ratio"},
};

const char* const kModel[] = {"model.delivered_pkts", "model.xmits",
                              "model.energy_j", "model.uj_per_bit",
                              "model.jain"};

struct Result {
  const Workload* w = nullptr;
  std::size_t attempted = 0, failed = 0, layer_execs = 0;
  std::vector<const Exec*> execs;  // the untraced cycles' executions
  std::vector<std::string> problems;
  std::map<std::string, std::vector<double>> cycle_values;  // per metric
  std::map<std::string, Summary> e2e;
  std::map<std::string, double> layer;  // empty unless per-layer
  std::map<std::string, double> model;  // seed 0's execution
  std::string digest;                   // seed 0's execution
  const Exec* traced = nullptr;         // first traced execution
};

// Checks digests, counts failures, and derives every metric of one
// workload from its executions. Each execution must reproduce the digest
// of the first successful execution of its seed; the twin's seed-0
// execution shares the seed of this workload's, which makes the twin
// check the same rule.
Result evaluate(const Runs& r, bool per_layer) {
  Result res;
  res.w = r.w;
  std::map<std::uint64_t, std::string> want;
  auto judge = [&](const Exec& e, const char* what) {
    ++res.attempted;
    std::string why = e.error;
    if (e.ok) {
      const auto [it, fresh] = want.emplace(e.seed, e.str("model.digest"));
      if (!fresh && it->second != e.str("model.digest"))
        why = "digest " + e.str("model.digest") + " != " + it->second;
    }
    if (why.empty()) return;
    ++res.failed;
    res.problems.push_back(std::string(what) + " seed " +
                           std::to_string(e.seed) + ": " + why);
  };
  for (const auto& c : r.cycles)
    for (const auto& e : c) judge(e, "execution");
  for (const auto& e : r.layer) judge(e, "execution");
  for (const auto& e : r.traced) judge(e, "traced execution");
  for (const auto& e : r.repeat) judge(e, "repeat");
  for (const auto& e : r.twin) judge(e, ("twin " + r.w->twin).c_str());

  // A cycle reports the median over its executions: it tracks the seed
  // set's typical cost while shrugging off the one-sided stalls a shared
  // host adds to single executions.
  for (const auto& c : r.cycles) {
    const auto walls = values_of(c, "wall_s");
    if (walls.empty()) continue;
    for (const auto& e : c) res.execs.push_back(&e);
    for (const auto& m : kEndToEnd)
      res.cycle_values[m.name].push_back(median_of(values_of(c, m.name)));
  }
  for (const auto& [k, v] : res.cycle_values) res.e2e[k] = summarize(v);
  const Exec* s0 = seed0(r);
  if (s0 && s0->ok) {
    for (const char* k : kModel) res.model[k] = s0->num(k);
    res.digest = s0->str("model.digest");
  }
  if (!per_layer) return res;

  // Per-layer metrics are means per execution over the per-layer pass.
  // Counts come from its untraced executions, times from the traced ones.
  const std::vector<Exec>& plain = r.layer;
  res.layer_execs = plain.size();
  auto& L = res.layer;
  for (const auto& m : kPerLayer)
    if (std::string(m.unit) == "count") L[m.name] = mean_of(plain, m.name);
  const double wall = mean_of(plain, "wall_s");
  L["sim.ns_per_event"] = ratio(wall * 1e9, L["sim.events"]);
  L["sim.replication"] =
      r.twin.empty() || !r.twin.front().ok || !s0 || !s0->ok
          ? 1.0
          : ratio(s0->num("sim.events"), r.twin.front().num("sim.events"));
  L["mac.delivery_ratio"] = ratio(mean_of(plain, "mac.deliveries"),
                                  L["mac.xmits"]);
  L["routing.row_hit_ratio"] =
      ratio(L["routing.row_reuses"],
            L["routing.row_reuses"] + L["routing.rows_built"]);
  L["core.useful_ratio"] = ratio(L["core.delivered"], L["core.data_sent"]);
  // A sharded workload has no traced executions (it cannot be stepped)
  // and reports its times as 0.
  for (const char* k :
       {"sim.root_other_s", "phy.mobility_s", "mac.after_move_s",
        "routing.sync_s", "routing.row_s", "net.data_s", "net.data_ns_p50",
        "net.data_ns_p99", "exp.build_s", "exp.collect_s"})
    L[k] = mean_of(r.traced, k);
  // Each traced execution probes its final topology; the median resists a
  // probe that caught the host in a slow moment.
  L["mac.recolor_us"] = median_of(values_of(r.traced, "mac.recolor_us"));
  L["routing.row_us"] = median_of(values_of(r.traced, "routing.row_us"));
  for (const auto& e : r.traced)
    if (e.ok && !res.traced) res.traced = &e;
  L["mac.recolor_est_s"] = L["mac.recolors"] * L["mac.recolor_us"] * 1e-6;
  L["routing.row_est_s"] = L["routing.rows_built"] * L["routing.row_us"] * 1e-6;
  L["exp.trace_overhead"] =
      r.traced.empty() ? 0.0 : ratio(mean_of(r.traced, "wall_s"), wall) - 1.0;
  return res;
}

// --- output ---------------------------------------------------------------

void print_result(const Result& res, const Options& o) {
  const Workload& w = *res.w;
  std::printf("\n== %s: %s\n   horizon %s s, %zu seed(s) x %zu proto(s) per "
              "execution, %zu execution(s) per cycle\n",
              w.name.c_str(), w.spec.c_str(), fmt(horizon(o, w)).c_str(),
              w.seeds, std::max<std::size_t>(1, w.protos.size()), w.execs);
  for (const auto& p : res.problems) std::printf("  FAILED %s\n", p.c_str());
  std::printf("  %-22s %-6s %12s %12s %12s %7s\n", "end-to-end", "unit",
              "median", "q1", "q3", "cycles");
  for (const auto& m : kEndToEnd) {
    const auto it = res.e2e.find(m.name);
    if (it == res.e2e.end()) continue;
    const Summary& s = it->second;
    std::printf("  %-22s %-6s %12.6g %12.6g %12.6g %7zu\n", m.name, m.unit,
                s.median, s.q1, s.q3, s.n);
  }
  std::printf("  %-22s %-6s %12.6g %*s(%zu/%zu executions)\n", "fail_rate",
              "ratio",
              ratio(static_cast<double>(res.failed),
                    static_cast<double>(res.attempted)),
              27, "", res.failed, res.attempted);
  for (const char* k : kModel)
    if (res.model.count(k))
      std::printf("  %-22s %-6s %12.10g\n", k, "", res.model.at(k));
  std::printf("  %-22s %-6s %12s\n", "model.digest", "", res.digest.c_str());
  if (res.layer.empty()) return;
  std::printf("  per-layer, mean per execution over %zu seeds (%s)\n",
              res.layer_execs,
              steppable(w) ? "times from the traced executions"
                           : "counts only: the sharded runner is not "
                             "stepped");
  for (const auto& m : kPerLayer)
    std::printf("  %-22s %-6s %12.6g\n", m.name, m.unit, res.layer.at(m.name));
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_nums(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + fmt(v[i]);
  return s + "]";
}

bool write_json(const std::string& path, const std::vector<Result>& results,
                const Options& o) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"meta\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"compiler\": " << json_str(JTPBENCH_COMPILER)
    << ", \"build_type\": " << json_str(JTPBENCH_BUILD_TYPE)
    << ", \"git_sha\": " << json_str(o.git_sha) << ", \"seed\": " << o.seed
    << ", \"smoke\": " << (o.smoke ? "true" : "false")
    << "},\n  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const Workload& w = *r.w;
    f << (i ? "," : "") << "\n    " << json_str(w.name) << ": {\n"
      << "      \"spec\": " << json_str(w.spec)
      << ", \"horizon_s\": " << fmt(horizon(o, w))
      << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ",\n      \"end_to_end\": {";
    for (const auto& m : kEndToEnd) {
      const auto it = r.e2e.find(m.name);
      if (it == r.e2e.end()) continue;
      f << "\n        " << json_str(m.name)
        << ": {\"unit\": " << json_str(m.unit)
        << ", \"median\": " << fmt(it->second.median)
        << ", \"q1\": " << fmt(it->second.q1)
        << ", \"q3\": " << fmt(it->second.q3) << ", \"n\": " << it->second.n
        << ", \"values\": " << json_nums(r.cycle_values.at(m.name)) << "},";
    }
    f << "\n        \"fail_rate\": {\"unit\": \"ratio\", \"median\": "
      << fmt(ratio(static_cast<double>(r.failed),
                   static_cast<double>(r.attempted)))
      << ", \"n\": " << r.attempted << "}\n      },\n      \"executions\": [";
    for (std::size_t k = 0; k < r.execs.size(); ++k) {
      const Exec& e = *r.execs[k];
      f << (k ? "," : "") << "\n        {\"seed\": " << e.seed
        << ", \"cpu\": " << e.cpu << ", \"ok\": " << (e.ok ? "true" : "false");
      for (const auto& m : kEndToEnd)
        f << ", " << json_str(m.name) << ": " << fmt(value_of(e, m.name));
      f << "}";
    }
    f << "],\n      \"model\": {";
    for (const auto& [k, v] : r.model) f << json_str(k) << ": " << fmt(v) << ", ";
    f << "\"model.digest\": " << json_str(r.digest) << "}";
    if (!r.layer.empty()) {
      f << ",\n      \"per_layer\": {";
      for (std::size_t k = 0; k < kPerLayer.size(); ++k)
        f << (k ? ", " : "") << json_str(kPerLayer[k].name) << ": "
          << fmt(r.layer.at(kPerLayer[k].name));
      f << "}";
    }
    if (r.traced) {
      // The first traced execution's spans, kept individually.
      const Exec& t = *r.traced;
      f << ",\n      \"trace\": {\"seed\": " << t.seed << ", \"spans\": {";
      for (std::size_t k = 0; k < kSpans; ++k) {
        const std::string key = kSpanKey[k];
        f << (k ? ", " : "") << json_str(key) << ": {\"count\": "
          << fmt(t.num(key + "_n")) << ", \"total_s\": "
          << fmt(t.num(key + "_s")) << "}";
      }
      f << "}, \"build_s\": [" << t.str("trace.build_s")
        << "], \"collect_s\": [" << t.str("trace.collect_s")
        << "], \"recolor_us\": " << fmt(t.num("mac.recolor_us"))
        << ", \"row_us\": " << fmt(t.num("routing.row_us")) << "}";
    }
    f << "\n    }";
  }
  f << "\n  }\n}\n";
  return static_cast<bool>(f);
}

// The last stdout line of a time-boxed run: the BENCHMARK.json contract.
void print_contract_line(const Result& r, bool per_layer) {
  std::string m;
  auto add = [&m](const char* name, const char* unit, double v) {
    m += std::string(m.empty() ? "" : ", ") + json_str(name) +
         ": {\"value\": " + fmt(v) + ", \"unit\": " + json_str(unit) + "}";
  };
  for (const auto& d : per_layer ? kPerLayer : kEndToEnd) {
    const double v = per_layer ? (r.layer.count(d.name) ? r.layer.at(d.name)
                                                        : 0.0)
                     : r.e2e.count(d.name) ? r.e2e.at(d.name).median
                                           : 0.0;
    add(d.name, d.unit, v);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              r.attempted, r.failed, m.c_str());
}

// --- modes ----------------------------------------------------------------

// Time-boxed mode: one workload. End-to-end mode runs whole cycles while
// another one fits in o.seconds (at least one); per-layer mode runs the
// per-layer pass.
int run_timeboxed(const Options& o) {
  const bool per_layer = o.trace_flag == 1;
  Runs r;
  r.w = find_workload(o.workloads.front());
  if (per_layer) {
    run_layer(o, r);
  } else {
    const auto t0 = Clock::now();
    double last = 0.0;
    do {
      const auto c0 = Clock::now();
      r.cycles.push_back(run_cycle(o, *r.w));
      last = seconds_since(c0);
    } while (seconds_since(t0) + last <= o.seconds);
  }
  add_checks(o, r, nullptr);
  const Result res = evaluate(r, per_layer);
  print_result(res, o);
  if (!o.out.empty() && !write_json(o.out, {res}, o))
    std::fprintf(stderr, "jtpbench: cannot write %s\n", o.out.c_str());
  print_contract_line(res, per_layer);
  return 0;
}

// Set mode: o.reps cycles per workload, round-robin across workloads,
// then every workload's per-layer pass.
int run_set(const Options& o) {
  std::vector<Runs> runs(o.workloads.size());
  for (std::size_t i = 0; i < runs.size(); ++i)
    runs[i].w = find_workload(o.workloads[i]);
  for (std::size_t rep = 0; rep < o.reps; ++rep)
    for (auto& r : runs) {
      std::fprintf(stderr, "jtpbench: %s cycle %zu/%zu\n", r.w->name.c_str(),
                   rep + 1, o.reps);
      r.cycles.push_back(run_cycle(o, *r.w));
    }
  for (auto& r : runs)
    if (o.trace) {
      std::fprintf(stderr, "jtpbench: %s per-layer pass\n", r.w->name.c_str());
      run_layer(o, r);
    }
  for (auto& r : runs) {
    const Runs* twin = nullptr;
    for (const auto& t : runs)
      if (t.w->name == r.w->twin) twin = &t;
    add_checks(o, r, twin);
  }
  std::vector<Result> results;
  std::size_t failed = 0;
  for (const auto& r : runs) {
    results.push_back(evaluate(r, o.trace));
    print_result(results.back(), o);
    failed += results.back().failed;
  }
  const std::string path = o.out.empty() ? "build/perf/results.json" : o.out;
  if (!write_json(path, results, o)) {
    std::fprintf(stderr, "jtpbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nresults written to %s (%zu failed execution(s))\n",
              path.c_str(), failed);
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& err) {
  std::fprintf(stderr,
               "jtpbench: %s\n"
               "usage: run.sh [--seed N] [--workload NAME]... [--reps N]\n"
               "              [--out PATH] [--no-trace] [--smoke]\n"
               "       run.sh --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "workloads:",
               err.c_str());
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-')
    usage("bad value for " + flag + ": " + text);
  return v;
}

double parse_seconds(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0) || !std::isfinite(v))
    usage("bad value for " + flag + ": " + text);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string exec_name;
  double scale = 1.0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--seed")
      o.seed = parse_uint(a, next());
    else if (a == "--workload")
      o.workloads.push_back(next());
    else if (a == "--reps")
      o.reps = static_cast<std::size_t>(parse_uint(a, next()));
    else if (a == "--out")
      o.out = next();
    else if (a == "--no-trace")
      o.trace = false;
    else if (a == "--smoke")
      o.smoke = true;
    else if (a == "--seconds")
      o.seconds = parse_seconds(a, next());
    else if (a == "--trace") {
      const std::uint64_t v = parse_uint(a, next());
      if (v > 1) usage("--trace takes 0 or 1");
      o.trace_flag = static_cast<int>(v);
    }
    else if (a == "--git-sha")
      o.git_sha = next();
    else if (a == "--exec")  // child role, spawned by the orchestrator
      exec_name = next();
    else if (a == "--scale")
      scale = parse_seconds(a, next());
    else if (a == "--traced")
      traced = true;
    else
      usage("unknown flag " + a);
  }
  for (const auto& name : o.workloads)
    if (!find_workload(name)) usage("unknown workload " + name);

  try {
    if (!exec_name.empty()) {
      const Workload* w = find_workload(exec_name);
      if (!w) usage("unknown workload " + exec_name);
      exec_child(*w, o.seed, scale, traced);
      return 0;
    }
    if (o.seconds > 0.0) {
      if (o.workloads.size() != 1 || o.trace_flag < 0)
        usage("--seconds needs exactly one --workload and --trace 0|1");
      return run_timeboxed(o);
    }
    if (o.trace_flag >= 0) usage("--trace needs --seconds");
    if (o.smoke) o.reps = 1;
    if (o.reps == 0) usage("--reps must be at least 1");
    if (o.workloads.empty())
      for (const auto& w : workloads()) o.workloads.push_back(w.name);
    return run_set(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jtpbench: %s\n", e.what());
    return 1;
  }
}
