#ifndef CORRMINE_TESTS_TEST_UTIL_H_
#define CORRMINE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "datagen/rng.h"
#include "itemset/transaction_database.h"

namespace corrmine::testing {

/// Row `i` of `db` as a vector, so EXPECT_EQ can compare and print it.
inline std::vector<ItemId> Row(const TransactionDatabase& db, size_t i) {
  const std::span<const ItemId> row = db.basket(i);
  return {row.begin(), row.end()};
}

/// Builds a database from explicit baskets; aborts on invalid input so test
/// setup failures are loud.
inline TransactionDatabase MakeDatabase(
    ItemId num_items, const std::vector<std::vector<ItemId>>& baskets) {
  TransactionDatabase db(num_items);
  for (const auto& basket : baskets) {
    auto status = db.AddBasket(basket);
    CORRMINE_CHECK(status.ok()) << status.ToString();
  }
  return db;
}

/// Random database where each item appears independently with a per-item
/// probability drawn from [0.1, 0.9] — uncorrelated null model.
inline TransactionDatabase RandomIndependentDatabase(ItemId num_items,
                                                     size_t num_baskets,
                                                     uint64_t seed) {
  datagen::Rng rng(seed);
  std::vector<double> probs(num_items);
  for (double& p : probs) p = 0.1 + 0.8 * rng.NextDouble();
  TransactionDatabase db(num_items);
  for (size_t b = 0; b < num_baskets; ++b) {
    std::vector<ItemId> basket;
    for (ItemId i = 0; i < num_items; ++i) {
      if (rng.NextBernoulli(probs[i])) basket.push_back(i);
    }
    auto status = db.AddBasket(std::move(basket));
    CORRMINE_CHECK(status.ok()) << status.ToString();
  }
  return db;
}

/// Random database with planted structure: items 0 and 1 are strongly
/// positively correlated (item 1 copies item 0 with probability
/// `copy_prob`), everything else independent.
inline TransactionDatabase RandomCorrelatedDatabase(ItemId num_items,
                                                    size_t num_baskets,
                                                    double copy_prob,
                                                    uint64_t seed) {
  datagen::Rng rng(seed);
  TransactionDatabase db(num_items);
  for (size_t b = 0; b < num_baskets; ++b) {
    std::vector<ItemId> basket;
    bool zero = rng.NextBernoulli(0.5);
    if (zero) basket.push_back(0);
    bool one = rng.NextBernoulli(copy_prob) ? zero : rng.NextBernoulli(0.5);
    if (one) basket.push_back(1);
    for (ItemId i = 2; i < num_items; ++i) {
      if (rng.NextBernoulli(0.4)) basket.push_back(i);
    }
    auto status = db.AddBasket(std::move(basket));
    CORRMINE_CHECK(status.ok()) << status.ToString();
  }
  return db;
}

}  // namespace corrmine::testing

#endif  // CORRMINE_TESTS_TEST_UTIL_H_
