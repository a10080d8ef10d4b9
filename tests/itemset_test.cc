#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "itemset/bitmap.h"
#include "itemset/count_provider.h"
#include "itemset/itemset.h"
#include "itemset/transaction_database.h"
#include "test_util.h"

namespace corrmine {
namespace {

TEST(ItemsetTest, ConstructionSortsAndDedupes) {
  Itemset s({5, 1, 3, 1, 5});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.item(0), 1u);
  EXPECT_EQ(s.item(1), 3u);
  EXPECT_EQ(s.item(2), 5u);
}

TEST(ItemsetTest, ContainsAndContainsAll) {
  Itemset s{2, 4, 6};
  EXPECT_TRUE(s.Contains(4));
  EXPECT_FALSE(s.Contains(5));
  EXPECT_TRUE(s.ContainsAll(Itemset{2, 6}));
  EXPECT_TRUE(s.ContainsAll(Itemset{}));
  EXPECT_FALSE(s.ContainsAll(Itemset{2, 5}));
}

TEST(ItemsetTest, UnionMergesSorted) {
  Itemset a{1, 3};
  Itemset b{2, 3, 9};
  Itemset u = a.Union(b);
  EXPECT_EQ(u, (Itemset{1, 2, 3, 9}));
}

TEST(ItemsetTest, WithAndWithoutItem) {
  Itemset s{1, 5};
  EXPECT_EQ(s.WithItem(3), (Itemset{1, 3, 5}));
  EXPECT_EQ(s.WithItem(5), s);
  EXPECT_EQ(s.WithoutItem(1), (Itemset{5}));
  EXPECT_EQ(s.WithoutItem(7), s);
}

TEST(ItemsetTest, SubsetsMissingOne) {
  Itemset s{1, 2, 3};
  auto subs = s.SubsetsMissingOne();
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0], (Itemset{2, 3}));
  EXPECT_EQ(subs[1], (Itemset{1, 3}));
  EXPECT_EQ(subs[2], (Itemset{1, 2}));
}

TEST(ItemsetTest, OrderingAndEquality) {
  EXPECT_LT(Itemset({1, 2}), Itemset({1, 3}));
  EXPECT_LT(Itemset({1}), Itemset({1, 2}));   // Prefix sorts first.
  EXPECT_LT(Itemset({0, 9}), Itemset({1}));   // Lexicographic on contents.
  EXPECT_EQ(Itemset({2, 1}), Itemset({1, 2}));
}

TEST(ItemsetTest, HashStableAndDiscriminating) {
  EXPECT_EQ(Itemset({3, 1}).Hash(), Itemset({1, 3}).Hash());
  EXPECT_NE(Itemset({1, 3}).Hash(), Itemset({1, 4}).Hash());
  EXPECT_NE(Itemset({}).Hash(), Itemset({0}).Hash());
}

TEST(ItemsetTest, ToStringFormat) {
  EXPECT_EQ(Itemset({7, 2}).ToString(), "{2, 7}");
  EXPECT_EQ(Itemset{}.ToString(), "{}");
}

// --- Bitmap ---

TEST(BitmapTest, SetTestClearCount) {
  Bitmap b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(64));
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitmapTest, AndCountMatchesManual) {
  Bitmap a(200), b(200);
  for (size_t i = 0; i < 200; i += 3) a.Set(i);
  for (size_t i = 0; i < 200; i += 5) b.Set(i);
  uint64_t expected = 0;
  for (size_t i = 0; i < 200; i += 15) ++expected;
  EXPECT_EQ(a.AndCount(b), expected);
}

TEST(BitmapTest, AndWithIntersects) {
  Bitmap a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  a.AndWith(b);
  EXPECT_FALSE(a.Test(1));
  EXPECT_TRUE(a.Test(65));
}

TEST(BitmapTest, MultiAndCount) {
  Bitmap a(100), b(100), c(100);
  for (size_t i = 0; i < 100; i += 2) a.Set(i);
  for (size_t i = 0; i < 100; i += 3) b.Set(i);
  for (size_t i = 0; i < 100; i += 4) c.Set(i);
  // Multiples of 12 below 100: 0, 12, ..., 96 -> 9 values.
  EXPECT_EQ(MultiAndCount({&a, &b, &c}), 9u);
  EXPECT_EQ(MultiAndCount({}), 0u);
}

// --- ItemDictionary ---

TEST(ItemDictionaryTest, InternsAndLooksUp) {
  ItemDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("tea"), 0u);
  EXPECT_EQ(dict.GetOrAdd("coffee"), 1u);
  EXPECT_EQ(dict.GetOrAdd("tea"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  ASSERT_TRUE(dict.Get("coffee").ok());
  EXPECT_EQ(*dict.Get("coffee"), 1u);
  EXPECT_TRUE(dict.Get("beer").status().IsNotFound());
  EXPECT_EQ(*dict.Name(0), "tea");
  EXPECT_TRUE(dict.Name(9).status().IsOutOfRange());
}

// --- TransactionDatabase ---

TEST(TransactionDatabaseTest, CountsAndMarginals) {
  auto db = testing::MakeDatabase(3, {{0, 1}, {1}, {0, 1, 2}, {}});
  EXPECT_EQ(db.num_baskets(), 4u);
  EXPECT_EQ(db.ItemCount(0), 2u);
  EXPECT_EQ(db.ItemCount(1), 3u);
  EXPECT_EQ(db.ItemCount(2), 1u);
  EXPECT_EQ(db.TotalItemOccurrences(), 6u);
  auto p = db.ItemProbability(1);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.75);
}

TEST(TransactionDatabaseTest, BasketsAreSortedAndDeduped) {
  TransactionDatabase db(5);
  ASSERT_TRUE(db.AddBasket({4, 2, 2, 0}).ok());
  EXPECT_EQ(testing::Row(db, 0), (std::vector<ItemId>{0, 2, 4}));
  EXPECT_EQ(db.ItemCount(2), 1u);  // Duplicate didn't double count.
}

// A span is copied as is when strictly increasing and sorted and
// deduplicated otherwise; a row of the database itself can be appended
// again while the row store reallocates under it.
TEST(TransactionDatabaseTest, AddsSpansIncludingItsOwnRows) {
  TransactionDatabase db(6);
  const std::vector<ItemId> unsorted = {5, 1, 5, 3};
  ASSERT_TRUE(db.AddBasket(std::span<const ItemId>(unsorted)).ok());
  EXPECT_EQ(testing::Row(db, 0), (std::vector<ItemId>{1, 3, 5}));
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(db.AddBasket(db.basket(0)).ok());
  ASSERT_EQ(db.num_baskets(), 101u);
  EXPECT_EQ(testing::Row(db, 100), (std::vector<ItemId>{1, 3, 5}));
  EXPECT_EQ(db.ItemCount(3), 101u);
  EXPECT_EQ(db.TotalItemOccurrences(), 303u);
  EXPECT_EQ(db.RowStoreBytes(), 102u * 8 + 303u * 4);
}

// Copies carry spare row-store capacity; they must still hold exactly the
// source's rows, counts and names, and take appends independently.
TEST(TransactionDatabaseTest, CopiesAreIndependent) {
  auto db = testing::MakeDatabase(4, {{0, 2}, {1}, {}});
  db.dictionary().GetOrAdd("tea");
  TransactionDatabase copy = db;
  ASSERT_TRUE(copy.AddBasket({3}).ok());
  ASSERT_EQ(db.num_baskets(), 3u);
  ASSERT_EQ(copy.num_baskets(), 4u);
  for (size_t row = 0; row < 3; ++row) {
    EXPECT_EQ(testing::Row(copy, row), testing::Row(db, row));
  }
  EXPECT_EQ(testing::Row(copy, 3), (std::vector<ItemId>{3}));
  EXPECT_EQ(copy.ItemCount(3), 1u);
  EXPECT_EQ(db.ItemCount(3), 0u);
  EXPECT_EQ(copy.dictionary().names(), db.dictionary().names());
  copy = db;
  EXPECT_EQ(copy.num_baskets(), 3u);
  EXPECT_EQ(copy.TotalItemOccurrences(), db.TotalItemOccurrences());
  EXPECT_EQ(copy.RowStoreBytes(), db.RowStoreBytes());
}

TEST(TransactionDatabaseTest, RejectsOutOfRangeItems) {
  TransactionDatabase db(3);
  EXPECT_TRUE(db.AddBasket({0, 3}).IsOutOfRange());
  EXPECT_EQ(db.num_baskets(), 0u);
}

TEST(TransactionDatabaseTest, BasketContainsAll) {
  auto db = testing::MakeDatabase(4, {{0, 2, 3}});
  EXPECT_TRUE(db.BasketContainsAll(0, Itemset{0, 3}));
  EXPECT_FALSE(db.BasketContainsAll(0, Itemset{0, 1}));
  EXPECT_TRUE(db.BasketContainsAll(0, Itemset{}));
}

TEST(TransactionDatabaseTest, EmptyDatabaseMarginalErrors) {
  TransactionDatabase db(2);
  EXPECT_TRUE(db.ItemProbability(0).status().IsFailedPrecondition());
  EXPECT_TRUE(db.ItemProbability(5).status().IsOutOfRange());
}

// --- Count providers ---

class CountProviderTest : public ::testing::TestWithParam<int> {};

TEST_P(CountProviderTest, ProvidersAgreeOnRandomData) {
  auto db = testing::RandomIndependentDatabase(8, 300,
                                               /*seed=*/GetParam());
  ScanCountProvider scan(db);
  BitmapCountProvider bitmap(db);
  EXPECT_EQ(scan.num_baskets(), bitmap.num_baskets());
  datagen::Rng rng(GetParam() * 977 + 1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ItemId> items;
    size_t size = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < size; ++i) {
      items.push_back(static_cast<ItemId>(rng.NextBelow(8)));
    }
    Itemset s(items);
    EXPECT_EQ(scan.CountAllPresent(s), bitmap.CountAllPresent(s))
        << s.ToString();
  }
}

TEST_P(CountProviderTest, SingletonCountsMatchItemCounts) {
  auto db = testing::RandomIndependentDatabase(6, 200, GetParam() + 100);
  ScanCountProvider scan(db);
  BitmapCountProvider bitmap(db);
  for (ItemId i = 0; i < 6; ++i) {
    EXPECT_EQ(scan.CountAllPresent(Itemset{i}), db.ItemCount(i));
    EXPECT_EQ(bitmap.CountAllPresent(Itemset{i}), db.ItemCount(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountProviderTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace corrmine
