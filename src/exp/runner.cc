#include "exp/runner.h"

#include <atomic>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <thread>

namespace jtp::exp {

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

namespace detail {

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  jobs = std::min(resolve_jobs(jobs), n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr first_error;
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!first_error) first_error = std::current_exception();
          return;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

std::vector<RunMetrics> run_seeds(
    std::size_t n_runs, std::uint64_t base_seed,
    const std::function<RunMetrics(std::uint64_t seed)>& body,
    std::size_t jobs) {
  return run_seeds_as(n_runs, base_seed, body, jobs);
}

Aggregate aggregate(const std::vector<RunMetrics>& runs,
                    const std::function<double(const RunMetrics&)>& extract) {
  sim::Summary s;
  for (const auto& r : runs) s.add(extract(r));
  return Aggregate{s.mean(), s.ci95_halfwidth(), s.count()};
}

TablePrinter::TablePrinter(std::vector<std::string> columns, int width)
    : cols_(std::move(columns)), width_(width) {}

void TablePrinter::header(std::ostream& os) const {
  for (const auto& c : cols_) os << std::setw(width_) << c;
  os << '\n';
  for (std::size_t i = 0; i < cols_.size(); ++i)
    os << std::setw(width_) << std::string(width_ - 2, '-');
  os << '\n';
}

void TablePrinter::row(std::ostream& os,
                       const std::vector<std::string>& cells) const {
  for (const auto& c : cells) os << std::setw(width_) << c;
  os << '\n';
}

namespace {

std::vector<std::string> column_names(const std::vector<sim::Column>& cols) {
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (const auto& c : cols) names.push_back(c.name);
  return names;
}

}  // namespace

Report::Report(std::ostream& os, std::string title,
               std::vector<sim::Column> cols, int width)
    : os_(os),
      title_(std::move(title)),
      series_(std::move(cols)),
      table_(column_names(series_.columns()), width) {}

bool Report::to_csv(const std::string& path) {
  csv_path_ = path;
  csv_.emplace(path);
  if (!*csv_) return false;
  // Header up front: the schema is fixed at construction, and an immediate
  // write surfaces unwritable paths before any simulation time is spent.
  series_.write_csv_header(*csv_);
  return static_cast<bool>(*csv_);
}

void Report::begin() {
  if (!title_.empty()) os_ << "--- " << title_ << " ---\n";
  table_.header(os_);
}

void Report::row(std::vector<sim::Cell> cells, bool echo) {
  const auto& cols = series_.columns();
  series_.append(std::move(cells));
  const auto& stored = series_.rows().back();
  if (echo) {
    std::vector<std::string> rendered;
    rendered.reserve(stored.size());
    for (std::size_t i = 0; i < stored.size(); ++i)
      rendered.push_back(stored[i].table_text(cols[i].precision));
    table_.row(os_, rendered);
  }
  if (csv_) series_.write_csv_row(*csv_, stored);
}

bool Report::finish() {
  if (!csv_) return true;
  csv_->flush();
  const bool ok = static_cast<bool>(*csv_);
  if (!finished_) {
    finished_ = true;
    if (ok) os_ << "series written to " << csv_path_ << '\n';
  }
  return ok;
}

}  // namespace jtp::exp
