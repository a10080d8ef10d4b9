// Model-based randomized tests: drive library containers with random
// operation sequences and compare against trusted standard-library models,
// plus robustness checks feeding random bytes into the parsers.

#include <optional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "datagen/rng.h"
#include "hash/itemset_set.h"
#include "io/csv.h"
#include "io/result_io.h"
#include "io/transaction_io.h"
#include "itemset/itemset.h"
#include "test_util.h"

namespace corrmine {
namespace {

// --- Itemset vs std::set reference ---

class ItemsetModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ItemsetModel, OperationsMatchStdSet) {
  datagen::Rng rng(GetParam());
  Itemset subject;
  std::set<ItemId> model;
  for (int op = 0; op < 300; ++op) {
    ItemId item = static_cast<ItemId>(rng.NextBelow(20));
    switch (rng.NextBelow(3)) {
      case 0:
        subject = subject.WithItem(item);
        model.insert(item);
        break;
      case 1:
        subject = subject.WithoutItem(item);
        model.erase(item);
        break;
      case 2: {
        // Union with a small random set.
        std::vector<ItemId> extra;
        for (int i = 0; i < 3; ++i) {
          ItemId e = static_cast<ItemId>(rng.NextBelow(20));
          extra.push_back(e);
          model.insert(e);
        }
        subject = subject.Union(Itemset(extra));
        break;
      }
    }
    ASSERT_EQ(subject.size(), model.size()) << "op " << op;
    for (ItemId m : model) {
      ASSERT_TRUE(subject.Contains(m)) << "missing " << m << " at op " << op;
    }
    // Sortedness invariant.
    for (size_t i = 1; i < subject.size(); ++i) {
      ASSERT_LT(subject.item(i - 1), subject.item(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemsetModel,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- ItemsetPerfectSet vs std::set<Itemset> ---

class PerfectSetModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PerfectSetModel, InsertContainsMatchReference) {
  datagen::Rng rng(GetParam() * 31);
  hash::ItemsetPerfectSet subject;
  std::set<Itemset> model;
  for (int op = 0; op < 2000; ++op) {
    std::vector<ItemId> items;
    size_t size = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < size; ++i) {
      items.push_back(static_cast<ItemId>(rng.NextBelow(12)));
    }
    Itemset s(items);
    bool was_new = model.insert(s).second;
    ASSERT_EQ(subject.Insert(s), was_new) << s.ToString();
    ASSERT_EQ(subject.size(), model.size());
    // Spot-check membership of a random probe.
    std::vector<ItemId> probe_items;
    for (size_t i = 0; i < 1 + rng.NextBelow(4); ++i) {
      probe_items.push_back(static_cast<ItemId>(rng.NextBelow(12)));
    }
    Itemset probe(probe_items);
    ASSERT_EQ(subject.Contains(probe), model.count(probe) > 0);
    // Find agrees with Contains and names the probe's insertion slot.
    const std::optional<size_t> index = subject.Find(probe.items());
    ASSERT_EQ(index.has_value(), subject.Contains(probe));
    if (index.has_value()) {
      ASSERT_LT(*index, subject.size());
      ASSERT_EQ(subject.itemsets()[*index], probe);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerfectSetModel,
                         ::testing::Values(10, 20, 30, 40));

// --- Parser robustness: random bytes must never crash, only error ---

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

std::string RandomBytes(datagen::Rng* rng, size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    // Bias toward printable + structural characters to reach deeper code.
    uint64_t pick = rng->NextBelow(100);
    if (pick < 60) {
      out += static_cast<char>('0' + rng->NextBelow(10));
    } else if (pick < 75) {
      out += ' ';
    } else if (pick < 85) {
      out += '\n';
    } else if (pick < 90) {
      out += ',';
    } else {
      out += static_cast<char>(rng->NextBelow(256));
    }
  }
  return out;
}

TEST_P(ParserFuzz, TransactionParserNeverCrashes) {
  datagen::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = RandomBytes(&rng, 1 + rng.NextBelow(400));
    auto db = io::ParseTransactions(input);
    if (db.ok()) {
      // Whatever parsed must be internally consistent.
      uint64_t total = 0;
      for (size_t row = 0; row < db->num_baskets(); ++row) {
        total += db->basket(row).size();
      }
      EXPECT_EQ(total, db->TotalItemOccurrences());
    }
  }
}

TEST_P(ParserFuzz, CsvParserNeverCrashes) {
  datagen::Rng rng(GetParam() + 99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = RandomBytes(&rng, 1 + rng.NextBelow(400));
    auto db = io::ParseCategoricalCsv(input);
    if (db.ok()) {
      EXPECT_GT(db->num_rows(), 0u);
      EXPECT_GE(db->num_attributes(), 1);
    }
  }
}

TEST_P(ParserFuzz, ResultParserNeverCrashes) {
  datagen::Rng rng(GetParam() + 777);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = "level " + RandomBytes(&rng, rng.NextBelow(100));
    auto result = io::ParseMiningResult(input);
    (void)result;  // OK or error — just must not crash.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(5, 15, 25));

}  // namespace
}  // namespace corrmine
