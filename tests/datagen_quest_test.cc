#include <gtest/gtest.h>

#include "datagen/quest_generator.h"
#include "datagen/rng.h"
#include "test_util.h"

namespace corrmine::datagen {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(5), b(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(4);
  for (double mean : {2.0, 20.0, 100.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.NextPoisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05) << "mean " << mean;
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

// --- Quest generator ---

TEST(QuestGeneratorTest, RespectsBasicShape) {
  QuestOptions options;
  options.num_transactions = 5000;
  options.num_items = 100;
  options.avg_transaction_size = 10.0;
  options.avg_pattern_size = 4.0;
  options.num_patterns = 200;
  auto db = GenerateQuestData(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_baskets(), 5000u);
  EXPECT_EQ(db->num_items(), 100u);

  double mean_size = static_cast<double>(db->TotalItemOccurrences()) /
                     static_cast<double>(db->num_baskets());
  // Duplicates inside a basket collapse, so the realized mean dips below
  // the Poisson target; it must still be in the right ballpark.
  EXPECT_GT(mean_size, 6.0);
  EXPECT_LT(mean_size, 12.0);
}

TEST(QuestGeneratorTest, DeterministicForSeed) {
  QuestOptions options;
  options.num_transactions = 500;
  options.num_items = 50;
  options.num_patterns = 50;
  auto a = GenerateQuestData(options);
  auto b = GenerateQuestData(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_baskets(), b->num_baskets());
  for (size_t i = 0; i < a->num_baskets(); ++i) {
    EXPECT_EQ(testing::Row(*a, i), testing::Row(*b, i)) << "basket " << i;
  }
}

TEST(QuestGeneratorTest, DifferentSeedsDiffer) {
  QuestOptions a_opts;
  a_opts.num_transactions = 200;
  a_opts.num_items = 50;
  a_opts.num_patterns = 50;
  QuestOptions b_opts = a_opts;
  b_opts.seed = a_opts.seed + 1;
  auto a = GenerateQuestData(a_opts);
  auto b = GenerateQuestData(b_opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  int differing = 0;
  for (size_t i = 0; i < 200; ++i) {
    if (testing::Row(*a, i) != testing::Row(*b, i)) ++differing;
  }
  EXPECT_GT(differing, 100);
}

TEST(QuestGeneratorTest, PlantsCooccurrenceStructure) {
  // Patterns seed correlated item groups: the most frequent pair must
  // co-occur far more often than independence predicts.
  QuestOptions options;
  options.num_transactions = 4000;
  options.num_items = 200;
  options.avg_transaction_size = 10.0;
  options.num_patterns = 40;  // Few patterns -> strong structure.
  auto db = GenerateQuestData(options);
  ASSERT_TRUE(db.ok());
  VerticalIndex index(*db);
  double n = static_cast<double>(db->num_baskets());
  double best_lift = 0.0;
  for (ItemId a = 0; a < 200; ++a) {
    if (db->ItemCount(a) < 40) continue;
    for (ItemId b = a + 1; b < 200; ++b) {
      if (db->ItemCount(b) < 40) continue;
      double joint =
          static_cast<double>(index.CountAllPresent(Itemset{a, b})) / n;
      double expected = (db->ItemCount(a) / n) * (db->ItemCount(b) / n);
      if (joint > 0 && expected > 0) {
        best_lift = std::max(best_lift, joint / expected);
      }
    }
  }
  EXPECT_GT(best_lift, 3.0);
}

TEST(QuestGeneratorTest, InputValidation) {
  QuestOptions bad;
  bad.num_transactions = 0;
  EXPECT_TRUE(GenerateQuestData(bad).status().IsInvalidArgument());
  QuestOptions bad2;
  bad2.num_items = 1;
  EXPECT_TRUE(GenerateQuestData(bad2).status().IsInvalidArgument());
  QuestOptions bad3;
  bad3.correlation_level = 1.5;
  EXPECT_TRUE(GenerateQuestData(bad3).status().IsInvalidArgument());
}

}  // namespace
}  // namespace corrmine::datagen
