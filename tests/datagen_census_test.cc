#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "datagen/census_generator.h"
#include "itemset/count_provider.h"
#include "test_util.h"

namespace corrmine::datagen {
namespace {

TEST(CensusModelTest, MarginalsMatchPublishedTable) {
  const CensusModel& model = CensusModel::Paper();
  // Marginals implied by the paper's pairwise supports (e.g. P(i0) = 18%,
  // P(i1) ~ 90.2%, P(i4) ~ 6.6%).
  EXPECT_NEAR(model.Marginal(0), 0.180, 0.005);
  EXPECT_NEAR(model.Marginal(1), 0.902, 0.005);
  EXPECT_NEAR(model.Marginal(4), 0.066, 0.005);
  EXPECT_NEAR(model.Marginal(7), 0.615, 0.01);
  EXPECT_NEAR(model.Marginal(8), 0.463, 0.01);
}

TEST(CensusModelTest, JointsAreSymmetricAndBounded) {
  const CensusModel& model = CensusModel::Paper();
  for (int i = 0; i < kCensusNumItems; ++i) {
    for (int j = 0; j < kCensusNumItems; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(model.PairJoint(i, j), model.PairJoint(j, i));
      EXPECT_GE(model.PairJoint(i, j), 0.0);
      EXPECT_LE(model.PairJoint(i, j),
                std::min(model.Marginal(i), model.Marginal(j)) + 0.01);
    }
  }
}

TEST(CensusModelTest, StructuralZerosPresent) {
  const CensusModel& model = CensusModel::Paper();
  EXPECT_DOUBLE_EQ(model.PairJoint(4, 5), 0.0);  // Non-citizen & US-born.
}

TEST(CensusLatentCorrelationTest, ProducesValidCorrelationMatrix) {
  auto corr = BuildCensusLatentCorrelation(CensusModel::Paper());
  ASSERT_TRUE(corr.ok());
  for (int i = 0; i < kCensusNumItems; ++i) {
    EXPECT_NEAR(corr->at(i, i), 1.0, 1e-9);
    for (int j = 0; j < kCensusNumItems; ++j) {
      EXPECT_LE(std::fabs(corr->at(i, j)), 1.0 + 1e-9);
      EXPECT_NEAR(corr->at(i, j), corr->at(j, i), 1e-12);
    }
  }
  EXPECT_TRUE(linalg::CholeskyFactor(*corr).ok());
}

TEST(CensusGeneratorTest, ShapeAndDictionary) {
  CensusOptions options;
  options.num_persons = 2000;
  auto db = GenerateCensusData(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_baskets(), 2000u);
  EXPECT_EQ(db->num_items(), static_cast<ItemId>(kCensusNumItems));
  EXPECT_EQ(*db->dictionary().Name(0), "i0");
  EXPECT_EQ(*db->dictionary().Name(9), "i9");
  EXPECT_EQ(CensusItems()[2].non_attribute, std::string("veteran"));
}

TEST(CensusGeneratorTest, MarginalsCloseToTargets) {
  CensusOptions options;
  options.num_persons = 30370;
  auto db = GenerateCensusData(options);
  ASSERT_TRUE(db.ok());
  const CensusModel& model = CensusModel::Paper();
  for (int i = 0; i < kCensusNumItems; ++i) {
    double observed = *db->ItemProbability(i);
    // 3-sigma sampling band plus copula/fixup slack.
    EXPECT_NEAR(observed, model.Marginal(i), 0.02)
        << "item i" << i;
  }
}

TEST(CensusGeneratorTest, PairwiseJointsCloseToTargets) {
  CensusOptions options;
  options.num_persons = 30370;
  auto db = GenerateCensusData(options);
  ASSERT_TRUE(db.ok());
  VerticalIndex index(*db);
  const CensusModel& model = CensusModel::Paper();
  double n = static_cast<double>(db->num_baskets());
  for (int i = 0; i < kCensusNumItems; ++i) {
    for (int j = i + 1; j < kCensusNumItems; ++j) {
      double observed =
          static_cast<double>(index.CountAllPresent(
              Itemset{static_cast<ItemId>(i), static_cast<ItemId>(j)})) /
          n;
      EXPECT_NEAR(observed, model.PairJoint(i, j), 0.025)
          << "pair (i" << i << ", i" << j << ")";
    }
  }
}

TEST(CensusGeneratorTest, StructuralZerosHold) {
  CensusOptions options;
  options.num_persons = 10000;
  auto db = GenerateCensusData(options);
  ASSERT_TRUE(db.ok());
  for (size_t row = 0; row < db->num_baskets(); ++row) {
    const auto& basket = db->basket(row);
    bool i1 = std::binary_search(basket.begin(), basket.end(), ItemId{1});
    bool i4 = std::binary_search(basket.begin(), basket.end(), ItemId{4});
    bool i5 = std::binary_search(basket.begin(), basket.end(), ItemId{5});
    bool i8 = std::binary_search(basket.begin(), basket.end(), ItemId{8});
    EXPECT_FALSE(i8 && !i1) << "male with 3+ children at row " << row;
    EXPECT_FALSE(i4 && i5) << "US-born non-citizen at row " << row;
  }
}

TEST(CensusGeneratorTest, DeterministicForSeed) {
  CensusOptions options;
  options.num_persons = 500;
  auto a = GenerateCensusData(options);
  auto b = GenerateCensusData(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(testing::Row(*a, i), testing::Row(*b, i));
  }
}

TEST(CensusGeneratorTest, RejectsZeroPersons) {
  CensusOptions bad;
  bad.num_persons = 0;
  EXPECT_TRUE(GenerateCensusData(bad).status().IsInvalidArgument());
}

}  // namespace
}  // namespace corrmine::datagen
