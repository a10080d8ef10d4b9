// Tests for multiple-testing corrections, the correlated-fraction sampler
// and the report renderer.

#include <cmath>

#include <gtest/gtest.h>

#include "core/chi_squared_test.h"
#include "core/fraction_estimator.h"
#include "core/report.h"
#include "stats/multiple_testing.h"
#include "test_util.h"

namespace corrmine {
namespace {

// --- Multiple testing ---

TEST(MultipleTestingTest, BonferroniThreshold) {
  EXPECT_DOUBLE_EQ(stats::BonferroniThreshold(0.05, 45), 0.05 / 45.0);
  EXPECT_DOUBLE_EQ(stats::BonferroniThreshold(0.05, 0), 0.05);
}

TEST(MultipleTestingTest, BenjaminiHochbergTextbookExample) {
  // Classic worked example: m = 10, q = 0.25.
  std::vector<double> p = {0.010, 0.013, 0.014, 0.190, 0.350,
                           0.500, 0.630, 0.670, 0.750, 0.810};
  auto rejected = stats::BenjaminiHochberg(p, 0.25);
  ASSERT_TRUE(rejected.ok());
  // Thresholds (k/10)*0.25: 0.025, 0.05, 0.075, 0.1, ... Largest k with
  // p_(k) <= threshold is k = 3.
  EXPECT_TRUE((*rejected)[0]);
  EXPECT_TRUE((*rejected)[1]);
  EXPECT_TRUE((*rejected)[2]);
  for (size_t i = 3; i < p.size(); ++i) {
    EXPECT_FALSE((*rejected)[i]) << i;
  }
}

TEST(MultipleTestingTest, BhStepUpRescuesLaterPValues) {
  // p = {0.01, 0.02, 0.03} at q = 0.05: k=3 threshold 0.05*3/3 = 0.05 >=
  // 0.03, so ALL are rejected even though 0.03 > 0.05/3.
  auto rejected = stats::BenjaminiHochberg({0.01, 0.02, 0.03}, 0.05);
  ASSERT_TRUE(rejected.ok());
  EXPECT_TRUE((*rejected)[0]);
  EXPECT_TRUE((*rejected)[1]);
  EXPECT_TRUE((*rejected)[2]);
}

TEST(MultipleTestingTest, AdjustedPValuesMonotoneAndCorrect) {
  std::vector<double> p = {0.01, 0.04, 0.03, 0.9};
  auto adjusted = stats::BenjaminiHochbergAdjusted(p);
  ASSERT_TRUE(adjusted.ok());
  // Sorted p: 0.01, 0.03, 0.04, 0.9 -> scaled: 0.04, 0.06, 0.0533.., 0.9;
  // running min from the top: q_(1)=0.04, q_(2)=0.0533.., q_(3)=0.0533..,
  // q_(4)=0.9.
  EXPECT_NEAR((*adjusted)[0], 0.04, 1e-12);
  EXPECT_NEAR((*adjusted)[2], 0.16 / 3.0, 1e-12);  // p=0.03 at rank 2.
  EXPECT_NEAR((*adjusted)[1], 0.16 / 3.0, 1e-12);  // p=0.04 at rank 3.
  EXPECT_NEAR((*adjusted)[3], 0.9, 1e-12);
  // Consistency: adjusted <= 1 and rejection at level q matches
  // BenjaminiHochberg.
  auto rejected = stats::BenjaminiHochberg(p, 0.06);
  ASSERT_TRUE(rejected.ok());
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ((*rejected)[i], (*adjusted)[i] <= 0.06) << i;
  }
}

TEST(MultipleTestingTest, Validation) {
  EXPECT_TRUE(stats::BenjaminiHochberg({}, 0.1).status().IsInvalidArgument());
  EXPECT_TRUE(
      stats::BenjaminiHochberg({0.5}, 1.5).status().IsInvalidArgument());
  EXPECT_TRUE(
      stats::BenjaminiHochberg({1.5}, 0.1).status().IsInvalidArgument());
  EXPECT_TRUE(
      stats::BenjaminiHochbergAdjusted({-0.1}).status().IsInvalidArgument());
}

// --- Correlated-fraction estimator ---

TEST(FractionEstimatorTest, NearZeroOnIndependentData) {
  auto db = testing::RandomIndependentDatabase(12, 400, 3);
  BitmapCountProvider provider(db);
  FractionEstimateOptions options;
  options.samples = 500;
  auto estimate =
      EstimateCorrelatedFraction(provider, db.num_items(), 2, options);
  ASSERT_TRUE(estimate.ok());
  // Per-test level 0.95 -> ~5% false positive rate expected.
  EXPECT_LT(estimate->fraction, 0.15);
  EXPECT_GT(estimate->std_error, 0.0);
}

TEST(FractionEstimatorTest, HighOnStronglyCorrelatedData) {
  // All items copy item 0: every pair correlated.
  datagen::Rng rng(9);
  TransactionDatabase db(6);
  for (int b = 0; b < 400; ++b) {
    std::vector<ItemId> basket;
    bool on = rng.NextBernoulli(0.5);
    for (ItemId i = 0; i < 6; ++i) {
      if (on != rng.NextBernoulli(0.1)) basket.push_back(i);
    }
    ASSERT_TRUE(db.AddBasket(std::move(basket)).ok());
  }
  BitmapCountProvider provider(db);
  FractionEstimateOptions options;
  options.samples = 300;
  auto estimate =
      EstimateCorrelatedFraction(provider, db.num_items(), 2, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate->fraction, 0.9);
}

TEST(FractionEstimatorTest, MatchesExhaustiveCountOnSmallSpace) {
  auto db = testing::RandomCorrelatedDatabase(8, 300, 0.8, 21);
  BitmapCountProvider provider(db);
  // Exhaustive fraction over all 28 pairs.
  int correlated = 0;
  for (ItemId a = 0; a < 8; ++a) {
    for (ItemId b = a + 1; b < 8; ++b) {
      auto table = ContingencyTable::Build(provider, Itemset{a, b});
      ASSERT_TRUE(table.ok());
      if (ComputeChiSquared(*table).SignificantAt(0.95)) ++correlated;
    }
  }
  double truth = correlated / 28.0;
  FractionEstimateOptions options;
  options.samples = 4000;
  auto estimate =
      EstimateCorrelatedFraction(provider, db.num_items(), 2, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->fraction, truth, 4 * estimate->std_error + 0.02);
}

TEST(FractionEstimatorTest, Validation) {
  auto db = testing::RandomIndependentDatabase(4, 50, 1);
  BitmapCountProvider provider(db);
  EXPECT_TRUE(EstimateCorrelatedFraction(provider, 4, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(EstimateCorrelatedFraction(provider, 4, 5)
                  .status()
                  .IsInvalidArgument());
  FractionEstimateOptions bad;
  bad.samples = 0;
  EXPECT_TRUE(EstimateCorrelatedFraction(provider, 4, 2, bad)
                  .status()
                  .IsInvalidArgument());
}

// --- Report rendering ---

TEST(ReportTest, ContainsSectionsAndNames) {
  auto db = testing::RandomCorrelatedDatabase(5, 400, 0.95, 42);
  db.dictionary().GetOrAdd("alpha");
  db.dictionary().GetOrAdd("beta");
  db.dictionary().GetOrAdd("gamma");
  db.dictionary().GetOrAdd("delta");
  db.dictionary().GetOrAdd("epsilon");
  BitmapCountProvider provider(db);
  MinerOptions miner;
  miner.support.min_count = 5;
  miner.support.cell_fraction = 0.26;
  miner.keep_frontier = true;
  auto result = MineCorrelations(provider, db.num_items(), miner);
  ASSERT_TRUE(result.ok());
  auto rendered = RenderReport(*result, &db.dictionary());
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  const std::string& report = *rendered;
  EXPECT_NE(report.find("Search statistics"), std::string::npos);
  EXPECT_NE(report.find("Strongest correlations"), std::string::npos);
  EXPECT_NE(report.find("alpha + beta"), std::string::npos);
  EXPECT_NE(report.find("frontier"), std::string::npos);
}

TEST(ReportTest, FdrFilterReducesFindings) {
  auto db = testing::RandomCorrelatedDatabase(8, 300, 0.5, 11);
  BitmapCountProvider provider(db);
  MinerOptions miner;
  miner.support.min_count = 3;
  miner.support.cell_fraction = 0.26;
  auto result = MineCorrelations(provider, db.num_items(), miner);
  ASSERT_TRUE(result.ok());
  ReportOptions strict;
  strict.fdr_level = 1e-6;
  auto filtered = RenderReport(*result, nullptr, strict);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_NE(filtered->find("FDR"), std::string::npos);
}

TEST(ReportTest, InvalidFdrLevelIsAnError) {
  auto db = testing::RandomCorrelatedDatabase(8, 300, 0.5, 11);
  BitmapCountProvider provider(db);
  MinerOptions miner;
  miner.support.min_count = 3;
  miner.support.cell_fraction = 0.26;
  auto result = MineCorrelations(provider, db.num_items(), miner);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->significant.empty());
  MiningResult empty;
  for (double level : {1.0, 2.0, -1.0, std::nan("")}) {
    ReportOptions options;
    options.fdr_level = level;
    EXPECT_TRUE(RenderReport(*result, nullptr, options)
                    .status()
                    .IsInvalidArgument())
        << level;
    // Rejected even when there is nothing to filter.
    EXPECT_TRUE(
        RenderReport(empty, nullptr, options).status().IsInvalidArgument())
        << level;
  }
}

TEST(ReportTest, EmptyResultRendersCleanly) {
  MiningResult empty;
  auto report = RenderReport(empty, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("0 findings"), std::string::npos);
}

}  // namespace
}  // namespace corrmine
