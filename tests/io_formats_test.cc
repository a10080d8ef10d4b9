// Tests for the CSV reader and result serialization.

#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "io/csv.h"
#include "io/result_io.h"

namespace corrmine::io {
namespace {

// --- CSV ---

constexpr char kCsv[] =
    "color,size\n"
    "red,small\n"
    "red,big\n"
    "blue,big\n"
    "# comment row\n"
    "blue,small\n";

TEST(CsvTest, ParsesHeaderAndCategories) {
  auto db = ParseCategoricalCsv(kCsv);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 4u);
  EXPECT_EQ(db->num_attributes(), 2);
  EXPECT_EQ(db->attribute(0).name, "color");
  ASSERT_EQ(db->attribute(0).arity(), 2);
  EXPECT_EQ(db->attribute(0).categories[0], "red");  // First appearance.
  EXPECT_EQ(db->value(2, 0), 1);                     // blue
  EXPECT_EQ(db->CategoryCount(1, 1), 2u);            // big twice.
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseCategoricalCsv("").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseCategoricalCsv("a,b\n").status().IsInvalidArgument());  // No rows.
  EXPECT_TRUE(ParseCategoricalCsv("a,b\nx\n").status().IsCorruption());
  EXPECT_TRUE(ParseCategoricalCsv("a,b\nx,\n").status().IsCorruption());
  EXPECT_TRUE(ParseCategoricalCsv("a,b\nx,y\n")
                  .status()
                  .IsFailedPrecondition());  // Single-category columns.
}

TEST(CsvTest, FileRoundTrip) {
  auto db = ParseCategoricalCsv(kCsv);
  ASSERT_TRUE(db.ok());
  std::string path = ::testing::TempDir() + "/corrmine_csv_test.csv";
  ASSERT_TRUE(WriteCategoricalCsv(*db, path).ok());
  auto reloaded = ReadCategoricalCsv(path);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->num_rows(), db->num_rows());
  for (size_t row = 0; row < db->num_rows(); ++row) {
    for (int a = 0; a < db->num_attributes(); ++a) {
      EXPECT_EQ(reloaded->value(row, a), db->value(row, a));
    }
  }
  std::remove(path.c_str());
}

// --- Result serialization ---

MiningResult SampleResult() {
  MiningResult result;
  LevelStats level;
  level.level = 2;
  level.possible_itemsets = 45;
  level.candidates = 40;
  level.discards = 3;
  level.significant = 12;
  level.not_significant = 25;
  result.levels.push_back(level);
  CorrelationRule rule;
  rule.itemset = Itemset{3, 7, 11};
  rule.chi2.statistic = 123.456;
  rule.chi2.p_value = 1.25e-7;
  rule.chi2.dof = 1;
  rule.major_dependence.mask = 0b101;
  rule.major_dependence.interest = 2.5;
  result.significant.push_back(rule);
  return result;
}

TEST(ResultIoTest, RoundTrip) {
  MiningResult original = SampleResult();
  auto parsed = ParseMiningResult(SerializeMiningResult(original));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->levels.size(), 1u);
  EXPECT_EQ(parsed->levels[0].candidates, 40u);
  EXPECT_EQ(parsed->levels[0].not_significant, 25u);
  ASSERT_EQ(parsed->significant.size(), 1u);
  const CorrelationRule& rule = parsed->significant[0];
  EXPECT_EQ(rule.itemset, (Itemset{3, 7, 11}));
  EXPECT_DOUBLE_EQ(rule.chi2.statistic, 123.456);
  EXPECT_DOUBLE_EQ(rule.chi2.p_value, 1.25e-7);
  EXPECT_EQ(rule.major_dependence.mask, 0b101u);
  EXPECT_DOUBLE_EQ(rule.major_dependence.interest, 2.5);
}

TEST(ResultIoTest, FileRoundTrip) {
  MiningResult original = SampleResult();
  std::string path = ::testing::TempDir() + "/corrmine_result_test.txt";
  ASSERT_TRUE(WriteMiningResult(original, path).ok());
  auto parsed = ReadMiningResult(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->significant.size(), 1u);
  std::remove(path.c_str());
}

// Write -> Parse must be exact even for subnormal p-values, which the
// writer's "%.17g" emits for extreme chi-squared statistics.
TEST(ResultIoTest, SubnormalPValueRoundTrips) {
  MiningResult original = SampleResult();
  const double subnormal = 1.98e-323;
  ASSERT_LT(subnormal, std::numeric_limits<double>::min());
  original.significant[0].chi2.p_value = subnormal;
  std::string path = ::testing::TempDir() + "/corrmine_subnormal_test.txt";
  ASSERT_TRUE(WriteMiningResult(original, path).ok());
  auto parsed = ReadMiningResult(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->significant.size(), 1u);
  EXPECT_EQ(parsed->significant[0].chi2.p_value, subnormal);
  EXPECT_EQ(SerializeMiningResult(*parsed), SerializeMiningResult(original));
  std::remove(path.c_str());
}

TEST(ResultIoTest, RejectsGarbage) {
  EXPECT_TRUE(ParseMiningResult("bogus 1 2 3\n").status().IsCorruption());
  EXPECT_TRUE(ParseMiningResult("level 2 45\n").status().IsCorruption());
  EXPECT_FALSE(ParseMiningResult("rule nan nan\n").ok());
  // Comments and blank lines are fine.
  EXPECT_TRUE(ParseMiningResult("# hi\n\n").ok());
}

}  // namespace
}  // namespace corrmine::io
