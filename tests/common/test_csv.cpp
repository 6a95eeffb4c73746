/// \file test_csv.cpp
/// \brief Unit tests for CSV writing (common/csv).

#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace cloudwf {
namespace {

TEST(Csv, BasicRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a", "b"});
  csv.field("x").field(1.5);
  csv.end_row();
  EXPECT_EQ(os.str(), "a,b\nx,1.5\n");
}

TEST(Csv, EscapesSeparatorsQuotesNewlines) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field("plain").field("with,comma").field("with\"quote").field("with\nnewline");
  csv.end_row();
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, IntegerFields) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field(-7).field(std::size_t{42}).field(3);
  csv.end_row();
  EXPECT_EQ(os.str(), "-7,42,3\n");
}

TEST(Csv, DoubleRoundTrips) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field(0.1).field(1e-9).field(12345678.25);
  csv.end_row();
  EXPECT_EQ(os.str(), "0.1,1e-09,12345678.25\n");
}

TEST(Csv, NonFiniteValues) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field(std::numeric_limits<double>::quiet_NaN())
      .field(std::numeric_limits<double>::infinity());
  csv.end_row();
  EXPECT_EQ(os.str(), "nan,inf\n");
}

TEST(Csv, HeaderAfterRowsRejected) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field("x");
  csv.end_row();
  EXPECT_THROW(csv.header({"a"}), InvalidArgument);
}

TEST(Csv, FieldCountMismatchRejected) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a", "b"});
  csv.field("only one");
  EXPECT_THROW(csv.end_row(), InvalidArgument);
}

TEST(Csv, EmptyRowRejected) {
  std::ostringstream os;
  CsvWriter csv(os);
  EXPECT_THROW(csv.end_row(), InvalidArgument);
}

TEST(Csv, CustomSeparator) {
  std::ostringstream os;
  CsvWriter csv(os, ';');
  csv.field("a").field("b;c");
  csv.end_row();
  EXPECT_EQ(os.str(), "a;\"b;c\"\n");
}

TEST(Csv, RowsWrittenCounts) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a"});
  EXPECT_EQ(csv.rows_written(), 1u);
  csv.field("x");
  csv.end_row();
  EXPECT_EQ(csv.rows_written(), 2u);
}

// A CSV file on disk is a CsvWriter over an AtomicFile's stream.
TEST(CsvFile, RejectsUnwritablePath) {
  // The temporary sibling cannot be created, so construction fails before
  // anything touches the destination path.
  EXPECT_THROW(AtomicFile("/nonexistent-dir/file.csv"), IoError);
}

TEST(CsvFile, PublishesAtomicallyOnCommit) {
  const std::string path = ::testing::TempDir() + "csvfile_atomic.csv";
  std::filesystem::remove(path);
  {
    AtomicFile file(path);
    CsvWriter writer(file.stream());
    writer.header({"a", "b"});
    writer.field("x").field(1.5);
    writer.end_row();
    // Not yet visible: content is still in the temporary sibling.
    EXPECT_FALSE(std::filesystem::exists(path));
    file.commit();
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a,b\nx,1.5\n");
  std::filesystem::remove(path);
}

TEST(ParseCsv, BasicRows) {
  const auto rows = parse_csv("a,b\nx,1.5\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"x", "1.5"}));
}

TEST(ParseCsv, QuotedFields) {
  const auto rows = parse_csv("plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"plain", "with,comma", "with\"quote", "with\nnewline"}));
}

TEST(ParseCsv, CrlfAndMissingTrailingNewline) {
  const auto rows = parse_csv("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, BlankLinesSkippedButEmptyFieldsKept) {
  const auto rows = parse_csv("a\n\n,\n\nb\n");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", ""}));  // lone separator = two empty fields
  EXPECT_EQ(rows[2], (std::vector<std::string>{"b"}));
}

TEST(ParseCsv, CustomSeparator) {
  const auto rows = parse_csv("a;\"b;c\";d\n", ';');
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b;c", "d"}));
}

TEST(ParseCsv, UnterminatedQuoteRejected) {
  EXPECT_THROW(parse_csv("\"never closed\n"), InvalidArgument);
}

TEST(ParseCsv, RoundTripsAdversarialFields) {
  const std::vector<std::vector<std::string>> original{
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline", "tab\there", ""},
      {"\"fully quoted\"", "trailing,", "\r\nwindows"},
  };
  std::ostringstream os;
  CsvWriter csv(os);
  for (const auto& row : original) {
    for (const auto& value : row) csv.field(value);
    csv.end_row();
  }
  EXPECT_EQ(parse_csv(os.str()), original);
}

TEST(ParseCsv, RoundTripsEverySeparator) {
  for (char sep : {',', ';', '\t', '|'}) {
    const std::vector<std::vector<std::string>> original{
        {std::string{sep} + "leads", "mid" + std::string{sep} + "dle", "quote\"" + std::string{sep}},
    };
    std::ostringstream os;
    CsvWriter csv(os, sep);
    for (const auto& value : original[0]) csv.field(value);
    csv.end_row();
    EXPECT_EQ(parse_csv(os.str(), sep), original) << "separator '" << sep << "'";
  }
}

}  // namespace
}  // namespace cloudwf
