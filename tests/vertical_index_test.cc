// VerticalIndex builds over 64-row-aligned row blocks on a pool. Blocks own
// disjoint bitmap words, so the bitmaps must be byte-identical to a serial
// build and to a naive per-row oracle for any thread count, and an append
// after a parallel build must equal a fresh build over base plus delta.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/rng.h"
#include "itemset/bitmap.h"
#include "itemset/transaction_database.h"
#include "test_util.h"

namespace corrmine {
namespace {

/// `num_baskets` random baskets of up to 12 ids below `num_items`.
TransactionDatabase RandomRows(ItemId num_items, size_t num_baskets,
                               uint64_t seed) {
  datagen::Rng rng(seed);
  TransactionDatabase db(num_items);
  for (size_t b = 0; b < num_baskets; ++b) {
    std::vector<ItemId> basket(rng.NextBelow(13));
    for (ItemId& item : basket) {
      item = static_cast<ItemId>(rng.NextBelow(num_items));
    }
    EXPECT_TRUE(db.AddBasket(std::move(basket)).ok());
  }
  return db;
}

/// The bitmaps set one bit at a time, row by row.
std::vector<Bitmap> OracleBitmaps(const TransactionDatabase& db) {
  std::vector<Bitmap> bitmaps(db.num_items(), Bitmap(db.num_baskets()));
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    for (const ItemId item : db.basket(row)) bitmaps[item].Set(row);
  }
  return bitmaps;
}

void ExpectIndexEquals(const VerticalIndex& index,
                       const std::vector<Bitmap>& expected) {
  ASSERT_EQ(index.num_items(), expected.size());
  for (ItemId item = 0; item < index.num_items(); ++item) {
    ASSERT_EQ(index.item_bitmap(item), expected[item]) << "item " << item;
  }
}

// Block sizes follow the item space (512 rows at 4096 items, 2368 at 870),
// so both shapes cut their rows into several blocks and a ragged last one.
TEST(VerticalIndexTest, ParallelBuildIsByteIdenticalToSerial) {
  for (const auto& [num_items, num_baskets] :
       std::vector<std::pair<ItemId, size_t>>{{4096, 3001}, {870, 10037}}) {
    const TransactionDatabase db = RandomRows(num_items, num_baskets, 5);
    const std::vector<Bitmap> oracle = OracleBitmaps(db);
    const VerticalIndex serial(db);  // one thread
    ExpectIndexEquals(serial, oracle);
    // --threads N runs on the caller plus a pool of N-1 workers.
    for (const int threads : {2, 3, 4}) {
      ThreadPool pool(threads - 1);
      const VerticalIndex parallel(db, &pool);
      EXPECT_EQ(parallel.num_baskets(), num_baskets);
      ExpectIndexEquals(parallel, oracle);
    }
  }
}

TEST(VerticalIndexTest, EmptyDatabaseBuildsEmptyBitmaps) {
  const TransactionDatabase db(7);
  ThreadPool pool(3);
  const VerticalIndex index(db, &pool);
  EXPECT_EQ(index.num_baskets(), 0u);
  EXPECT_EQ(index.words_per_bitmap(), 0u);
  ExpectIndexEquals(index, OracleBitmaps(db));
}

// Rows appended after a parallel build, with new items, land exactly where
// a fresh build over base plus delta puts them.
TEST(VerticalIndexTest, AppendAfterParallelBuildMatchesFreshBuild) {
  TransactionDatabase db = RandomRows(870, 5000, 9);
  const TransactionDatabase delta = RandomRows(900, 777, 10);
  ThreadPool pool(3);
  VerticalIndex index(db, &pool);
  ASSERT_TRUE(db.GrowItemSpace(delta.num_items()).ok());
  for (size_t row = 0; row < delta.num_baskets(); ++row) {
    ASSERT_TRUE(db.AddBasket(delta.basket(row)).ok());
  }
  index.AppendFrom(db, 5000);
  EXPECT_EQ(index.num_baskets(), db.num_baskets());
  const VerticalIndex fresh(db, &pool);
  ExpectIndexEquals(index, OracleBitmaps(db));
  for (ItemId item = 0; item < db.num_items(); ++item) {
    ASSERT_EQ(index.item_bitmap(item), fresh.item_bitmap(item))
        << "item " << item;
  }
}

}  // namespace
}  // namespace corrmine
