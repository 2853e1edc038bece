// Multi-seed experiment runner with 95% confidence intervals.
//
// The paper reports means of 10–20 independent runs with 95% CIs; Runner
// repeats a scenario across seeds — on a thread pool when jobs > 1 — and
// aggregates any scalar extracted from RunMetrics. Report renders a result
// table to stdout and mirrors it into a CSV Series, so a bench describes
// its output schema exactly once.
//
// Thread-safety contract: the simulation stack (sim/core/phy/mac/net) has
// no shared mutable state — no globals, no function-local statics — so any
// number of Simulator/Network instances may run concurrently as long as
// each instance stays on one thread. run_seeds relies on exactly that: the
// body must build its own Network per call and must not touch state shared
// across seeds without its own synchronization.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/metrics.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace jtp::exp {

struct Aggregate {
  double mean = 0.0;
  double ci95 = 0.0;
  std::size_t runs = 0;

  // An Aggregate drops into a Report row as a CI cell.
  operator sim::Cell() const { return sim::Cell(mean, ci95); }
};

// Seed of the i-th run: fixed derivation from the base seed, independent
// of execution order, so parallel and serial runs draw identical streams.
inline std::uint64_t seed_for_run(std::uint64_t base_seed, std::size_t i) {
  return base_seed + 1000 * (i + 1);
}

// 0 means "auto": one job per hardware thread.
std::size_t resolve_jobs(std::size_t jobs);

namespace detail {
// Runs fn(0..n-1) on min(jobs, n) threads (inline when that is 1). Indices
// are claimed atomically; the first exception is rethrown after join.
void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);
}  // namespace detail

// Runs `body` once per seed and returns the results in seed order — the
// output is identical for any job count. T must be default-constructible.
template <typename Body>
auto run_seeds_as(std::size_t n_runs, std::uint64_t base_seed, Body&& body,
                  std::size_t jobs = 1)
    -> std::vector<std::invoke_result_t<Body&, std::uint64_t>> {
  std::vector<std::invoke_result_t<Body&, std::uint64_t>> out(n_runs);
  detail::parallel_for(n_runs, jobs, [&](std::size_t i) {
    out[i] = body(seed_for_run(base_seed, i));
  });
  return out;
}

// The common case: one RunMetrics per seed.
std::vector<RunMetrics> run_seeds(
    std::size_t n_runs, std::uint64_t base_seed,
    const std::function<RunMetrics(std::uint64_t seed)>& body,
    std::size_t jobs = 1);

// Aggregates one scalar across runs.
Aggregate aggregate(const std::vector<RunMetrics>& runs,
                    const std::function<double(const RunMetrics&)>& extract);

// Fixed-width table printer for bench output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns, int width = 14);
  void header(std::ostream& os) const;
  void row(std::ostream& os, const std::vector<std::string>& cells) const;

 private:
  std::vector<std::string> cols_;
  int width_;
};

// One result table of a bench: owns the stdout TablePrinter and the CSV
// Series behind a single schema. Rows stream to both sinks as they arrive,
// so partial output survives an interrupted long run.
class Report {
 public:
  // `title` prints as a "--- title ---" banner above the table (skipped
  // when empty). Column precision/CI flags drive both renderings.
  Report(std::ostream& os, std::string title, std::vector<sim::Column> cols,
         int width = 14);

  // Opens `path` and writes the CSV header immediately, so a bad path
  // fails before the long runs. Returns false (with the stream in a failed
  // state) when the file cannot be opened.
  bool to_csv(const std::string& path);

  // Prints the banner and the table header.
  void begin();

  // Mirrors the row into the Series and the CSV (if open); prints it when
  // `echo` is true. Trace-style benches set echo=false for most rows so
  // the CSV carries the full series while stdout stays a readable digest.
  void row(std::vector<sim::Cell> cells, bool echo = true);

  // Flushes the CSV and prints a "written to PATH" note once. Safe to call
  // when no CSV was requested. Returns false on I/O failure.
  bool finish();

  const sim::Series& series() const { return series_; }
  const std::string& csv_path() const { return csv_path_; }

 private:
  std::ostream& os_;
  std::string title_;
  sim::Series series_;
  TablePrinter table_;
  std::string csv_path_;
  std::optional<std::ofstream> csv_;
  bool finished_ = false;
};

}  // namespace jtp::exp
