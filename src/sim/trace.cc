#include "sim/trace.h"

#include <sstream>
#include <stdexcept>

namespace jtp::sim {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

namespace {

std::string fmt_fixed(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

std::string Cell::table_text(int precision) const {
  switch (kind_) {
    case Kind::kText:
      return text_;
    case Kind::kNumber:
      return fmt_fixed(mean_, precision);
    case Kind::kCi:
      return fmt_fixed(mean_, precision) + " ±" + fmt_fixed(ci_, precision);
  }
  return {};
}

std::string Cell::csv_value(int precision) const {
  if (kind_ == Kind::kText) return csv_escape(text_);
  return fmt_fixed(mean_, precision);
}

std::string Cell::csv_ci_value(int precision) const {
  // A plain number in a CI column has zero half-width by definition.
  return fmt_fixed(kind_ == Kind::kCi ? ci_ : 0.0, precision);
}

Series::Series(std::vector<Column> cols) : cols_(std::move(cols)) {
  if (cols_.empty())
    throw std::invalid_argument("Series: at least one column required");
}

void Series::append(std::vector<Cell> row) {
  if (row.size() != cols_.size())
    throw std::invalid_argument("Series::append: column count mismatch");
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].kind() == Cell::Kind::kCi && !cols_[i].ci)
      throw std::invalid_argument("Series::append: CI cell in plain column '" +
                                  cols_[i].name + "'");
  }
  rows_.push_back(std::move(row));
}

void Series::write_csv_header(std::ostream& os) const {
  bool first = true;
  for (const auto& c : cols_) {
    if (!first) os << ',';
    os << csv_escape(c.name);
    if (c.ci) os << ',' << csv_escape(c.name + "_ci95");
    first = false;
  }
  os << '\n';
}

void Series::write_csv_row(std::ostream& os,
                           const std::vector<Cell>& row) const {
  bool first = true;
  for (std::size_t i = 0; i < row.size() && i < cols_.size(); ++i) {
    if (!first) os << ',';
    os << row[i].csv_value(cols_[i].precision);
    if (cols_[i].ci) os << ',' << row[i].csv_ci_value(cols_[i].precision);
    first = false;
  }
  os << '\n';
}

}  // namespace jtp::sim
