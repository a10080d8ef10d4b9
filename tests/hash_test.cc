#include <unordered_map>

#include <gtest/gtest.h>

#include "hash/dynamic_perfect_hash.h"
#include "hash/itemset_set.h"
#include "hash/universal_hash.h"

namespace corrmine::hash {
namespace {

TEST(UniversalHashTest, InRangeAndDeterministic) {
  UniversalHashFunction h(12345, 6789);
  for (uint64_t key : {uint64_t{0}, uint64_t{1}, uint64_t{42}, UINT64_MAX}) {
    uint64_t v = h(key, 100);
    EXPECT_LT(v, 100u);
    EXPECT_EQ(v, h(key, 100));
  }
}

TEST(UniversalHashTest, ZeroAIsFixedUp) {
  UniversalHashFunction h(0, 5);
  // a = 0 would collapse everything to one slot; constructor forces a = 1.
  EXPECT_EQ(h.a(), 1u);
}

TEST(UniversalHashTest, DifferentFunctionsDisagree) {
  SplitMix64 rng(7);
  UniversalHashFunction h1 = rng.NextHashFunction();
  UniversalHashFunction h2 = rng.NextHashFunction();
  int differences = 0;
  for (uint64_t key = 0; key < 100; ++key) {
    if (h1(key, 1024) != h2(key, 1024)) ++differences;
  }
  EXPECT_GT(differences, 50);
}

TEST(SplitMix64Test, ReproducibleStream) {
  SplitMix64 a(99), b(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// --- Dynamic perfect hashing ---

TEST(DynamicPerfectHashTest, InsertFindErase) {
  DynamicPerfectHash table;
  EXPECT_TRUE(table.Insert(10, 100));
  EXPECT_TRUE(table.Insert(20, 200));
  EXPECT_FALSE(table.Insert(10, 111));  // Overwrite, not new.
  ASSERT_TRUE(table.Find(10).has_value());
  EXPECT_EQ(*table.Find(10), 111u);
  EXPECT_EQ(*table.Find(20), 200u);
  EXPECT_FALSE(table.Find(30).has_value());
  EXPECT_TRUE(table.Erase(10));
  EXPECT_FALSE(table.Erase(10));
  EXPECT_FALSE(table.Contains(10));
  EXPECT_EQ(table.size(), 1u);
}

TEST(DynamicPerfectHashTest, ChurnMatchesReferenceMap) {
  DynamicPerfectHash table;
  std::unordered_map<uint64_t, uint64_t> reference;
  SplitMix64 rng(123);
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = rng.Next() % 512;  // Small key space forces collisions.
    uint64_t action = rng.Next() % 3;
    if (action < 2) {
      uint64_t value = rng.Next();
      bool was_new = !reference.count(key);
      EXPECT_EQ(table.Insert(key, value), was_new);
      reference[key] = value;
    } else {
      EXPECT_EQ(table.Erase(key), reference.erase(key) > 0);
    }
    if (op % 500 == 0) {
      EXPECT_EQ(table.size(), reference.size());
    }
  }
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [key, value] : reference) {
    auto found = table.Find(key);
    ASSERT_TRUE(found.has_value()) << key;
    EXPECT_EQ(*found, value);
  }
  EXPECT_EQ(table.Entries().size(), reference.size());
}

TEST(DynamicPerfectHashTest, GrowsThroughGlobalRebuilds) {
  DynamicPerfectHash table;
  for (uint64_t i = 0; i < 5000; ++i) {
    table.Insert(i * 7919, i);
  }
  EXPECT_EQ(table.size(), 5000u);
  EXPECT_GT(table.global_rebuilds(), 0u);
  for (uint64_t i = 0; i < 5000; ++i) {
    auto found = table.Find(i * 7919);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
  }
}

// --- ItemsetPerfectSet ---

TEST(ItemsetPerfectSetTest, InsertContains) {
  ItemsetPerfectSet set;
  EXPECT_TRUE(set.Insert(Itemset{1, 2}));
  EXPECT_TRUE(set.Insert(Itemset{2, 3}));
  EXPECT_FALSE(set.Insert(Itemset{2, 1}));  // Same set, different order.
  EXPECT_TRUE(set.Contains(Itemset{1, 2}));
  EXPECT_FALSE(set.Contains(Itemset{1, 3}));
  EXPECT_EQ(set.size(), 2u);
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(Itemset{1, 2}));
}

TEST(ItemsetPerfectSetTest, ManyItemsets) {
  ItemsetPerfectSet set;
  for (ItemId a = 0; a < 60; ++a) {
    for (ItemId b = a + 1; b < 60; ++b) {
      EXPECT_TRUE(set.Insert(Itemset{a, b}));
    }
  }
  EXPECT_EQ(set.size(), 60u * 59u / 2u);
  for (ItemId a = 0; a < 60; ++a) {
    for (ItemId b = a + 1; b < 60; ++b) {
      EXPECT_TRUE(set.Contains(Itemset{a, b}));
    }
  }
  EXPECT_FALSE(set.Contains(Itemset{0, 60}));
  EXPECT_FALSE(set.Contains(Itemset{0, 1, 2}));
}

}  // namespace
}  // namespace corrmine::hash
