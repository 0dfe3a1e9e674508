#include <sstream>

#include <gtest/gtest.h>

#include "report/ascii_chart.h"
#include "report/table.h"
#include "util/error.h"

namespace raidrel::report {
namespace {

TEST(Table, TextRenderingAligns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  std::ostringstream os;
  t.print_text(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Columns aligned: "alpha" and "bb" rows have the value at the same
  // column offset.
  const auto lines = [&] {
    std::vector<std::string> v;
    std::istringstream is(out);
    std::string line;
    while (std::getline(is, line)) v.push_back(line);
    return v;
  }();
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[2].find('1'), lines[3].find('2'));
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"inside", "multi\nline"});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, RejectsBadShapes) {
  EXPECT_THROW(Table({}), ModelError);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ModelError);
  EXPECT_EQ(t.rows(), 0u);
}

TEST(AsciiChart, PlotsSeriesWithinBounds) {
  AsciiChart chart({.width = 40, .height = 10, .x_label = "t",
                    .y_label = "ddf"});
  chart.add_series("rising", {0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 4.0, 9.0}, '*');
  chart.add_series("flat", {0.0, 3.0}, {2.0, 2.0}, 'o');
  std::ostringstream os;
  chart.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("rising"), std::string::npos);
}

TEST(AsciiChart, LogAxesDropNonPositives) {
  AsciiChart chart({.width = 40, .height = 8, .log_x = true, .log_y = true});
  chart.add_series("s", {0.0, 10.0, 100.0}, {0.0, 1.0, 100.0}, '+');
  std::ostringstream os;
  chart.print(os);  // must not throw on the zero point
  EXPECT_NE(os.str().find('+'), std::string::npos);
}

TEST(AsciiChart, ValidatesInput) {
  EXPECT_THROW(AsciiChart({.width = 2, .height = 2}), ModelError);
  AsciiChart chart({.width = 40, .height = 8});
  EXPECT_THROW(chart.add_series("bad", {1.0}, {1.0, 2.0}, 'x'), ModelError);
  std::ostringstream os;
  EXPECT_THROW(chart.print(os), ModelError);  // nothing to plot
}

TEST(AsciiChart, ConstantSeriesDoesNotDivideByZero) {
  AsciiChart chart({.width = 40, .height = 8});
  chart.add_series("const", {1.0, 2.0}, {5.0, 5.0}, '#');
  std::ostringstream os;
  EXPECT_NO_THROW(chart.print(os));
}

}  // namespace
}  // namespace raidrel::report
