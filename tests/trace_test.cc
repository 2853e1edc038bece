// Tests for the tabular output layer: CSV escaping, Cell rendering,
// Series schema enforcement and serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace.h"

namespace jtp::sim {
namespace {

TEST(CsvEscape, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("abc"), "abc");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesFieldsWithSeparators) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("\""), "\"\"\"\"");
}

TEST(Cell, NumberRendering) {
  Cell c(1.23456);
  EXPECT_EQ(c.kind(), Cell::Kind::kNumber);
  EXPECT_EQ(c.table_text(2), "1.23");
  EXPECT_EQ(c.csv_value(4), "1.2346");
}

TEST(Cell, IntegralTypesConvert) {
  EXPECT_EQ(Cell(std::size_t{7}).table_text(0), "7");
  EXPECT_EQ(Cell(-3).table_text(0), "-3");
}

TEST(Cell, CiRendering) {
  Cell c(2.5, 0.25);
  EXPECT_EQ(c.kind(), Cell::Kind::kCi);
  EXPECT_EQ(c.table_text(2), "2.50 ±0.25");
  EXPECT_EQ(c.csv_value(2), "2.50");
  EXPECT_EQ(c.csv_ci_value(2), "0.25");
}

TEST(Cell, TextRendersVerbatimInTableEscapedInCsv) {
  Cell c("with, comma");
  EXPECT_EQ(c.table_text(3), "with, comma");
  EXPECT_EQ(c.csv_value(3), "\"with, comma\"");
}

TEST(Cell, PlainNumberInCiColumnHasZeroHalfwidth) {
  Cell c(4.0);
  EXPECT_EQ(c.csv_ci_value(1), "0.0");
}

TEST(Series, RejectsEmptySchema) {
  EXPECT_THROW(Series(std::vector<Column>{}), std::invalid_argument);
}

TEST(Series, RejectsArityMismatch) {
  Series s({{"a"}, {"b"}});
  EXPECT_THROW(s.append({1.0}), std::invalid_argument);
  EXPECT_THROW(s.append({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Series, RejectsCiCellInPlainColumn) {
  Series s({{"a"}, {"b", 3, /*with_ci=*/true}});
  EXPECT_THROW(s.append({Cell(1.0, 0.1), Cell(2.0, 0.2)}),
               std::invalid_argument);
  s.append({1.0, Cell(2.0, 0.2)});  // CI cell in the CI column is fine
  EXPECT_EQ(s.rows().size(), 1u);
}

TEST(Series, CsvExpandsCiColumns) {
  Series s({{"x", 0}, {"y", 2, /*with_ci=*/true}});
  s.append({1, Cell(2.0, 0.5)});
  s.append({2, 3.0});  // plain value in a CI column: half-width 0
  std::ostringstream os;
  s.write_csv_header(os);
  for (const auto& row : s.rows()) s.write_csv_row(os, row);
  EXPECT_EQ(os.str(),
            "x,y,y_ci95\n"
            "1,2.00,0.50\n"
            "2,3.00,0.00\n");
}

TEST(Series, CsvEscapesHeaderAndTextCells) {
  Series s({{"name, first", 0}, {"v", 1}});
  s.append({Cell("a \"quoted\" one"), 1.5});
  std::ostringstream os;
  s.write_csv_header(os);
  s.write_csv_row(os, s.rows().front());
  EXPECT_EQ(os.str(),
            "\"name, first\",v\n"
            "\"a \"\"quoted\"\" one\",1.5\n");
}

}  // namespace
}  // namespace jtp::sim
