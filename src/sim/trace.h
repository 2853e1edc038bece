// Tabular experiment output: named columns, typed rows, CSV serialization.
//
// Series is the one description of a result table that every consumer
// shares: the exp-layer Report renders it as a paper-style stdout table,
// and streams the machine-checkable CSV form that the committed
// bench/baselines/ CSVs (and tools/compare_bench_csv.py) consume. A
// CI-bearing column renders as "mean ±hw" in tables but expands into two
// CSV columns (`name`, `name_ci95`) so the tolerance checker can use the
// half-width instead of guessing a band.
#pragma once

#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

namespace jtp::sim {

// RFC-4180 quoting: wraps the field in quotes (doubling embedded quotes)
// when it contains a comma, quote, or newline; returns it untouched
// otherwise.
std::string csv_escape(const std::string& field);

struct Column {
  std::string name;
  int precision = 3;  // digits after the decimal point for number cells
  bool ci = false;    // cells carry a 95% CI half-width

  Column(std::string n, int prec = 3, bool with_ci = false)
      : name(std::move(n)), precision(prec), ci(with_ci) {}
  Column(const char* n, int prec = 3, bool with_ci = false)
      : name(n), precision(prec), ci(with_ci) {}
};

// One table cell: a number, a mean with a CI half-width, or raw text.
class Cell {
 public:
  enum class Kind { kNumber, kCi, kText };

  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  Cell(T v) : kind_(Kind::kNumber), mean_(static_cast<double>(v)) {}
  Cell(double mean, double ci95)
      : kind_(Kind::kCi), mean_(mean), ci_(ci95) {}
  Cell(std::string text) : kind_(Kind::kText), text_(std::move(text)) {}
  Cell(const char* text) : kind_(Kind::kText), text_(text) {}

  Kind kind() const { return kind_; }
  double mean() const { return mean_; }
  double ci95() const { return ci_; }
  const std::string& text() const { return text_; }

  // "12.300" / "12.300 ±0.400" / verbatim text.
  std::string table_text(int precision) const;
  // CSV fields this cell contributes: one, or two for a CI column.
  std::string csv_value(int precision) const;
  std::string csv_ci_value(int precision) const;

 private:
  Kind kind_;
  double mean_ = 0.0;
  double ci_ = 0.0;
  std::string text_;
};

// An in-memory result table with a fixed schema.
class Series {
 public:
  explicit Series(std::vector<Column> cols);

  const std::vector<Column>& columns() const { return cols_; }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  // Appends one row; throws std::invalid_argument on arity mismatch or a
  // CI cell in a non-CI column (a plain number in a CI column is fine —
  // its half-width serializes as 0).
  void append(std::vector<Cell> row);

  // The CSV, streamed a line at a time (exp::Report writes each row as it
  // arrives): the escaped header, where CI columns expand to
  // `name`,`name_ci95`, then one line per row.
  void write_csv_header(std::ostream& os) const;
  void write_csv_row(std::ostream& os, const std::vector<Cell>& row) const;

 private:
  std::vector<Column> cols_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace jtp::sim
