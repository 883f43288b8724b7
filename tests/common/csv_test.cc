#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "support/test_temp_dir.h"

namespace rockhopper::common {
namespace {

TEST(CsvTest, RoundTripSimpleTable) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "x"}, {"2", "y"}};
  const std::string text = WriteCsvString(table);
  Result<CsvTable> parsed = ParseCsvString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, table.header);
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(CsvTest, QuotesCellsWithSpecials) {
  CsvTable table;
  table.header = {"name"};
  table.rows = {{"a,b"}, {"he said \"hi\""}, {"line1\nline2"}};
  const std::string text = WriteCsvString(table);
  Result<CsvTable> parsed = ParseCsvString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows[0][0], "a,b");
  EXPECT_EQ(parsed->rows[1][0], "he said \"hi\"");
  EXPECT_EQ(parsed->rows[2][0], "line1\nline2");
}

TEST(CsvTest, ToleratesCrlfAndTrailingNewline) {
  Result<CsvTable> parsed = ParseCsvString("a,b\r\n1,2\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows.size(), 1u);
  EXPECT_EQ(parsed->rows[0][1], "2");
}

TEST(CsvTest, EmptyCellsPreserved) {
  Result<CsvTable> parsed = ParseCsvString("a,b,c\n1,,3\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows[0][1], "");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_EQ(ParseCsvString("a,b\n1,2,3\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsvString("").ok());
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsvString("a\n\"oops\n").ok());
}

TEST(CsvTest, ColumnIndexAndNumericColumn) {
  Result<CsvTable> parsed = ParseCsvString("id,val\n1,2.5\n2,-3.25\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->ColumnIndex("val").ok());
  EXPECT_EQ(*parsed->ColumnIndex("val"), 1u);
  EXPECT_EQ(parsed->ColumnIndex("nope").status().code(),
            StatusCode::kNotFound);
  Result<std::vector<double>> col = parsed->NumericColumn("val");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ((*col)[0], 2.5);
  EXPECT_DOUBLE_EQ((*col)[1], -3.25);
}

TEST(CsvTest, NumericColumnRejectsText) {
  Result<CsvTable> parsed = ParseCsvString("v\nabc\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->NumericColumn("v").ok());
}

TEST(CsvFileTest, WriteAndReadBack) {
  const test_support::TestTempDir dir;
  const std::string path = dir.File("table.csv");
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"42"}};
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  Result<CsvTable> readback = ReadCsvFile(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->rows[0][0], "42");
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/rockhopper.csv").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace rockhopper::common
