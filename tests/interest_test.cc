#include <gtest/gtest.h>

#include "core/interest.h"
#include "test_util.h"

namespace corrmine {
namespace {

// Example 1 of the paper (tea/coffee): n=100, O(tc)=20, O(t)=25, O(c)=90.
TransactionDatabase TeaCoffeeDb() {
  std::vector<std::vector<ItemId>> baskets;
  // Item 0 = tea, item 1 = coffee. Cells: tc=20, t!c=5, !tc=70, !t!c=5.
  for (int i = 0; i < 20; ++i) baskets.push_back({0, 1});
  for (int i = 0; i < 5; ++i) baskets.push_back({0});
  for (int i = 0; i < 70; ++i) baskets.push_back({1});
  for (int i = 0; i < 5; ++i) baskets.push_back({});
  return testing::MakeDatabase(2, baskets);
}

TEST(InterestTest, TeaCoffeeDependenceIsNegative) {
  auto db = TeaCoffeeDb();
  ScanCountProvider provider(db);
  auto table = ContingencyTable::Build(provider, Itemset{0, 1});
  ASSERT_TRUE(table.ok());
  auto cells = ComputeCellInterests(*table);
  ASSERT_EQ(cells.size(), 4u);
  // I(tea & coffee) = P(tc) / (P(t)P(c)) = 0.2 / (0.25 * 0.9) = 0.888...
  const CellInterest& both = cells[0b11];
  EXPECT_EQ(both.observed, 20u);
  EXPECT_NEAR(both.expected, 22.5, 1e-12);
  EXPECT_NEAR(both.interest, 0.2 / (0.25 * 0.9), 1e-12);
  EXPECT_LT(both.interest, 1.0);  // The paper's negative correlation.
}

TEST(InterestTest, InterestAboveAndBelowOne) {
  auto db = TeaCoffeeDb();
  ScanCountProvider provider(db);
  auto table = ContingencyTable::Build(provider, Itemset{0, 1});
  ASSERT_TRUE(table.ok());
  auto cells = ComputeCellInterests(*table);
  // tea & !coffee: O=5, E = 100*0.25*0.1 = 2.5 -> interest 2.0.
  EXPECT_NEAR(cells[0b01].interest, 2.0, 1e-12);
  // !tea & coffee: O=70, E = 100*0.75*0.9 = 67.5 -> slightly above 1.
  EXPECT_NEAR(cells[0b10].interest, 70.0 / 67.5, 1e-12);
}

TEST(InterestTest, MajorDependenceIsLargestContribution) {
  auto db = TeaCoffeeDb();
  ScanCountProvider provider(db);
  auto table = ContingencyTable::Build(provider, Itemset{0, 1});
  ASSERT_TRUE(table.ok());
  CellInterest major = MajorDependenceCell(*table);
  auto cells = ComputeCellInterests(*table);
  for (const auto& cell : cells) {
    EXPECT_LE(cell.contribution, major.contribution + 1e-12);
  }
  // Hand check: contributions are (O-E)^2/E with E = 22.5, 2.5, 67.5, 7.5;
  // the (tea, !coffee) cell with O=5, E=2.5 contributes 2.5 — the largest.
  EXPECT_EQ(major.mask, 0b01u);
}

TEST(InterestTest, MostExtremeInterestCell) {
  auto db = TeaCoffeeDb();
  ScanCountProvider provider(db);
  auto table = ContingencyTable::Build(provider, Itemset{0, 1});
  ASSERT_TRUE(table.ok());
  CellInterest extreme = MostExtremeInterestCell(*table);
  // Interests: 0.889, 2.0, 1.037, 0.667 -> |I-1| max at 2.0 (mask 0b01).
  EXPECT_EQ(extreme.mask, 0b01u);
  EXPECT_NEAR(extreme.interest, 2.0, 1e-12);
}

TEST(InterestTest, ImpossibleCellHasZeroInterest) {
  // Item 1 present in every basket: cell (a & !b) has E > 0 but O = 0 and
  // cell expectations with !b are 0.
  auto db = testing::MakeDatabase(2, {{0, 1}, {1}, {0, 1}, {1}});
  ScanCountProvider provider(db);
  auto table = ContingencyTable::Build(provider, Itemset{0, 1});
  ASSERT_TRUE(table.ok());
  auto cells = ComputeCellInterests(*table);
  // E[!b cells] = 0 and O = 0 -> interest defined as 1 (no deviation).
  EXPECT_DOUBLE_EQ(cells[0b00].interest, 1.0);
  EXPECT_DOUBLE_EQ(cells[0b00].contribution, 0.0);
}

TEST(InterestTest, FormatCellPattern) {
  Itemset s{2, 7};
  EXPECT_EQ(FormatCellPattern(s, 0b01), "{i2, !i7}");
  EXPECT_EQ(FormatCellPattern(s, 0b11), "{i2, i7}");
  EXPECT_EQ(FormatCellPattern(s, 0b00), "{!i2, !i7}");
  ItemDictionary dict;
  dict.GetOrAdd("zero");
  dict.GetOrAdd("one");
  dict.GetOrAdd("two");
  Itemset named{0, 2};
  EXPECT_EQ(FormatCellPattern(named, 0b10, &dict), "{!zero, two}");
  // Ids past the dictionary fall back to "i<id>", as with no dictionary;
  // an empty dictionary (integer-id input) names nothing.
  Itemset beyond{1, 3, 40};
  EXPECT_EQ(FormatCellPattern(beyond, 0b101, &dict), "{one, !i3, i40}");
  ItemDictionary empty;
  EXPECT_EQ(FormatCellPattern(beyond, 0b010, &empty), "{!i1, i3, !i40}");
}

}  // namespace
}  // namespace corrmine
