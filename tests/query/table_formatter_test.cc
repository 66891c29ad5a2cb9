#include "query/table_formatter.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace lsd {
namespace {

TEST(TableFormatterTest, RendersHeadersAndRows) {
  TableFormatter t({"A", "B"});
  t.AddRow({"x", "y"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| A"), std::string::npos);
  EXPECT_NE(out.find("| x"), std::string::npos);
  // Columns aligned: every line has the same length.
  size_t first_len = out.find('\n');
  for (std::string_view line : Split(out, '\n')) {
    if (line.empty()) continue;
    EXPECT_EQ(line.size(), first_len);
  }
}

TEST(TableFormatterTest, MultiLineCellsStack) {
  TableFormatter t({"NAME", "DEPTS"});
  t.AddRow({"SUE", "SHIPPING\nRECEIVING"});
  std::string out = t.Render();
  EXPECT_NE(out.find("SHIPPING"), std::string::npos);
  EXPECT_NE(out.find("RECEIVING"), std::string::npos);
  // The stacked value is two physical lines inside one logical row:
  // exactly three rule lines (top, under header, bottom).
  int rules = 0;
  for (std::string_view line : Split(out, '\n')) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 3);
}

TEST(TableFormatterTest, ShortRowsArePadded) {
  TableFormatter t({"A", "B", "C"});
  t.AddRow({"only-a"});
  std::string out = t.Render();
  EXPECT_NE(out.find("only-a"), std::string::npos);
}

TEST(TableFormatterTest, EmptyTableRendersHeaderOnly) {
  TableFormatter t({"HEADER"});
  std::string out = t.Render();
  EXPECT_NE(out.find("HEADER"), std::string::npos);
  int rules = 0;
  for (std::string_view line : Split(out, '\n')) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 2);  // no trailing rule when there are no rows
}

// Byte-exact goldens for the renderer's edge cases: every line of a
// table has the same width, stacked cells pad their short columns with blank
// lines, and Split-style line semantics hold (an empty cell is one empty
// line; a trailing newline adds an empty last line).
TEST(TableFormatterTest, GoldenMultiLineCell) {
  TableFormatter t({"NAME", "DEPTS"});
  t.AddRow({"SUE", "SHIPPING\nRECEIVING"});
  EXPECT_EQ(t.Render(),
            "+------+-----------+\n"
            "| NAME | DEPTS     |\n"
            "+------+-----------+\n"
            "| SUE  | SHIPPING  |\n"
            "|      | RECEIVING |\n"
            "+------+-----------+\n");
}

TEST(TableFormatterTest, GoldenEmptyCells) {
  TableFormatter t({"A", ""});
  t.AddRow({"", "x"});
  t.AddRow({"", ""});
  EXPECT_EQ(t.Render(),
            "+---+---+\n"
            "| A |   |\n"
            "+---+---+\n"
            "|   | x |\n"
            "|   |   |\n"
            "+---+---+\n");
}

TEST(TableFormatterTest, GoldenTrailingNewlineCells) {
  TableFormatter t({"H\n"});
  t.AddRow({"a\n"});
  EXPECT_EQ(t.Render(),
            "+---+\n"
            "| H |\n"
            "|   |\n"
            "+---+\n"
            "| a |\n"
            "|   |\n"
            "+---+\n");
}

TEST(FormatResultTest, PropositionRendersTruth) {
  EntityTable entities;
  ResultSet r;
  r.is_proposition = true;
  r.truth = true;
  EXPECT_EQ(FormatResult(r, entities), "true\n");
  r.truth = false;
  EXPECT_EQ(FormatResult(r, entities), "false\n");
}

TEST(FormatResultTest, RowsRenderEntityNames) {
  EntityTable entities;
  ResultSet r;
  r.columns = {"X"};
  r.rows = {{entities.Intern("FELIX")}};
  std::string out = FormatResult(r, entities);
  EXPECT_NE(out.find("FELIX"), std::string::npos);
  EXPECT_NE(out.find("| X"), std::string::npos);
}

TEST(FormatResultTest, TruncationIsAnnotated) {
  EntityTable entities;
  ResultSet r;
  r.columns = {"X"};
  r.rows = {{entities.Intern("A")}};
  r.truncated = true;
  std::string out = FormatResult(r, entities);
  EXPECT_NE(out.find("(truncated)"), std::string::npos);
}

}  // namespace
}  // namespace lsd
