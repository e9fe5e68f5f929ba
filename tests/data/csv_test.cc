#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>

#include "data/generator.h"
#include "data/real_datasets.h"

namespace crowdsky {
namespace {

TEST(CsvTest, ReadBasic) {
  std::istringstream in(
      "width:known:max,height:known:max,area:crowd:max\n"
      "1,2,2\n"
      "3,4,12\n");
  auto ds = ReadCsv(in);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), 2);
  EXPECT_EQ(ds->schema().num_known(), 2);
  EXPECT_EQ(ds->schema().num_crowd(), 1);
  EXPECT_EQ(ds->schema().attribute(0).direction, Direction::kMax);
  EXPECT_DOUBLE_EQ(ds->value(1, 2), 12.0);
}

TEST(CsvTest, ReadWithLabels) {
  std::istringstream in(
      "a:known:min,c:crowd:min,label\n"
      "1,2,first\n"
      "3,4,second\n");
  auto ds = ReadCsv(in);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->tuple(0).label, "first");
  EXPECT_EQ(ds->tuple(1).label, "second");
}

TEST(CsvTest, SkipsBlankLines) {
  std::istringstream in("a:known:min\n1\n\n2\n");
  auto ds = ReadCsv(in);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2);
}

TEST(CsvTest, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalidArgument());
}

TEST(CsvTest, RejectsBadHeaderField) {
  std::istringstream in("a:known\n1\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalidArgument());
  std::istringstream in2("a:human:min\n1\n");
  EXPECT_TRUE(ReadCsv(in2).status().IsInvalidArgument());
  std::istringstream in3("a:known:sideways\n1\n");
  EXPECT_TRUE(ReadCsv(in3).status().IsInvalidArgument());
}

TEST(CsvTest, RejectsLabelNotLast) {
  std::istringstream in("label,a:known:min\nx,1\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalidArgument());
}

TEST(CsvTest, RejectsWrongFieldCount) {
  std::istringstream in("a:known:min,b:known:min\n1\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalidArgument());
}

TEST(CsvTest, RejectsNonNumericValue) {
  std::istringstream in("a:known:min\nfoo\n");
  auto r = ReadCsv(in);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(CsvTest, RoundTripPreservesEverything) {
  GeneratorOptions opt;
  opt.cardinality = 20;
  opt.num_known = 3;
  opt.num_crowd = 2;
  const Dataset original = GenerateDataset(opt).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(original, out).ok());
  std::istringstream in(out.str());
  const Dataset reread = ReadCsv(in).ValueOrDie();
  ASSERT_TRUE(reread.schema() == original.schema());
  ASSERT_EQ(reread.size(), original.size());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread.tuple(i).values, original.tuple(i).values) << i;
  }
}

TEST(CsvTest, RoundTripWithLabelsAndMixedDirections) {
  const Dataset original = MakeMoviesDataset();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(original, out).ok());
  std::istringstream in(out.str());
  const Dataset reread = ReadCsv(in).ValueOrDie();
  ASSERT_TRUE(reread.schema() == original.schema());
  ASSERT_EQ(reread.size(), original.size());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread.tuple(i).label, original.tuple(i).label);
    EXPECT_EQ(reread.tuple(i).values, original.tuple(i).values);
  }
}

TEST(CsvTest, RoundTripPreservesTheHeaderLineExactly) {
  std::istringstream in(
      "width:known:max,height:known:min,area:crowd:max,label\n"
      "1,2,2,box\n");
  const Dataset ds = ReadCsv(in).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(ds, out).ok());
  const std::string written = out.str();
  EXPECT_EQ(written.substr(0, written.find('\n')),
            "width:known:max,height:known:min,area:crowd:max,label");
  // And the re-read schema is identical, spec by spec.
  std::istringstream again(written);
  const Dataset reread = ReadCsv(again).ValueOrDie();
  EXPECT_TRUE(reread.schema() == ds.schema());
}

TEST(CsvTest, LabelsWithCommasRoundTrip) {
  // The label is everything after the last numeric field, so commas
  // inside it need no quoting ("Monsters, Inc.").
  auto ds = Dataset::Make(Schema::MakeSynthetic(1, 1),
                          {{1, 2}, {3, 4}},
                          {"Monsters, Inc.", "plain"});
  ds.status().CheckOK();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*ds, out).ok());
  std::istringstream in(out.str());
  const Dataset reread = ReadCsv(in).ValueOrDie();
  EXPECT_EQ(reread.tuple(0).label, "Monsters, Inc.");
  EXPECT_EQ(reread.tuple(1).label, "plain");
}

TEST(CsvTest, QuoteCharactersInLabelsAreLiteral) {
  // No quoting layer exists by design: quote characters are label bytes
  // and survive a round trip untouched.
  auto ds = Dataset::Make(Schema::MakeSynthetic(1, 1), {{1, 2}},
                          {"the \"best\" option"});
  ds.status().CheckOK();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*ds, out).ok());
  std::istringstream in(out.str());
  const Dataset reread = ReadCsv(in).ValueOrDie();
  EXPECT_EQ(reread.tuple(0).label, "the \"best\" option");
}

TEST(CsvTest, ExtremeValuesSurviveTheRoundTrip) {
  // %.17g output must re-parse to the identical doubles.
  auto ds = Dataset::Make(
      Schema::MakeSynthetic(1, 1),
      {{0.1, 1.0 / 3.0}, {1e-300, 123456789.123456789}});
  ds.status().CheckOK();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*ds, out).ok());
  std::istringstream in(out.str());
  const Dataset reread = ReadCsv(in).ValueOrDie();
  for (int i = 0; i < ds->size(); ++i) {
    EXPECT_EQ(reread.tuple(i).values, ds->tuple(i).values) << i;
  }
}

TEST(CsvTest, SubnormalsAndLimitsRoundTripBitExactly) {
  // The writer emits subnormals; the reader must take them back, not
  // refuse them the way glibc strtod's ERANGE would.
  using Limits = std::numeric_limits<double>;
  auto ds = Dataset::Make(
      Schema::MakeSynthetic(1, 1),
      {{Limits::denorm_min(), Limits::min()},
       {-0.0, Limits::max()},
       {Limits::lowest(), -Limits::denorm_min()}});
  ds.status().CheckOK();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*ds, out).ok());
  EXPECT_NE(out.str().find("4.9406564584124654e-324"), std::string::npos);
  std::istringstream in(out.str());
  const auto reread = ReadCsv(in);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->size(), ds->size());
  for (int i = 0; i < ds->size(); ++i) {
    for (int a = 0; a < 2; ++a) {
      const double want = ds->value(i, a);
      const double got = reread->value(i, a);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0)
          << "tuple " << i << " attribute " << a;
    }
  }
}

TEST(CsvTest, OverflowAndUnderflowToZeroAreRefused) {
  std::istringstream big("a:known:min\n1e999\n");
  EXPECT_TRUE(ReadCsv(big).status().IsInvalidArgument());
  std::istringstream tiny("a:known:min\n1e-400\n");
  EXPECT_TRUE(ReadCsv(tiny).status().IsInvalidArgument());
}

TEST(CsvTest, ToleratesCrlfLineEndings) {
  std::istringstream in(
      "a:known:min,c:crowd:max,label\r\n"
      "1,2,first\r\n"
      "\r\n"
      "3.5,4,second\r\n");
  const auto ds = ReadCsv(in);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->size(), 2);
  EXPECT_EQ(ds->schema().attribute(1).direction, Direction::kMax);
  EXPECT_EQ(ds->value(1, 0), 3.5);
  EXPECT_EQ(ds->tuple(0).label, "first");
  EXPECT_EQ(ds->tuple(1).label, "second");
}

TEST(CsvTest, LastLineWithoutNewlineIsRead) {
  std::istringstream in("a:known:min\n1\n2");
  const auto ds = ReadCsv(in);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), 2);
  EXPECT_EQ(ds->value(1, 0), 2.0);
}

TEST(CsvTest, WrittenBytesArePrintfSeventeenG) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(1, 1),
                          {{0.1, 2.0}, {-1e-5, 123456789.123456789}},
                          {"x", ""});
  ds.status().CheckOK();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*ds, out).ok());
  EXPECT_EQ(out.str(),
            "K1:known:min,C1:crowd:min,label\n"
            "0.10000000000000001,2,x\n"
            "-1.0000000000000001e-05,123456789.12345679,\n");
}

TEST(CsvTest, FileRoundTrip) {
  const Dataset original = MakeRectanglesDataset();
  const std::string path = ::testing::TempDir() + "/crowdsky_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  const Dataset reread = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(reread.size(), original.size());
}

TEST(CsvTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadCsvFile("/nonexistent/nope.csv").status().IsIOError());
}

TEST(CsvTest, ReadingADirectoryIsIOError) {
  const auto r = ReadCsvFile(::testing::TempDir());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

Dataset RowsOfOnes(int n) {
  return Dataset::Make(Schema::MakeSynthetic(4, 1),
                       std::vector<std::vector<double>>(
                           static_cast<size_t>(n), {1, 2, 3, 4, 5}))
      .ValueOrDie();
}

TEST(CsvTest, WriteErrorOnASmallFileIsReported) {
  // Ten rows fit in the stream buffer, so the device's error shows only
  // when the file is flushed at close.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status s = WriteCsvFile(RowsOfOnes(10), "/dev/full");
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(CsvTest, WriteErrorOnALargeFileIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status s = WriteCsvFile(RowsOfOnes(5000), "/dev/full");
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

}  // namespace
}  // namespace crowdsky
