#include <gtest/gtest.h>

#include "core/chi_squared_test.h"
#include "datagen/text_generator.h"
#include "itemset/count_provider.h"
#include "test_util.h"

namespace corrmine::datagen {
namespace {

TEST(TextGeneratorTest, CorpusShape) {
  auto corpus = GenerateTextCorpus();
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->database.num_baskets(), 91u);
  // Pruning leaves a few hundred distinct words (paper: 416).
  EXPECT_GT(corpus->database.num_items(), 100u);
  EXPECT_LT(corpus->database.num_items(), 600u);
  EXPECT_GT(corpus->raw_vocabulary, corpus->database.num_items());
}

TEST(TextGeneratorTest, PruningRespectsDocFrequency) {
  TextCorpusOptions options;
  auto corpus = GenerateTextCorpus(options);
  ASSERT_TRUE(corpus.ok());
  const TransactionDatabase& db = corpus->database;
  double min_docs = options.min_doc_frequency *
                    static_cast<double>(options.num_documents);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    EXPECT_GE(static_cast<double>(db.ItemCount(i)), min_docs)
        << "item " << *db.dictionary().Name(i);
  }
}

TEST(TextGeneratorTest, MandelaNelsonNearPerfectlyCorrelated) {
  auto corpus = GenerateTextCorpus();
  ASSERT_TRUE(corpus.ok());
  const TransactionDatabase& db = corpus->database;
  auto mandela = db.dictionary().Get("mandela");
  auto nelson = db.dictionary().Get("nelson");
  ASSERT_TRUE(mandela.ok());
  ASSERT_TRUE(nelson.ok());
  BitmapCountProvider provider(db);
  auto table = ContingencyTable::Build(provider, Itemset{*mandela, *nelson});
  ASSERT_TRUE(table.ok());
  ChiSquaredResult chi2 = ComputeChiSquared(*table);
  // The paper's Table 4 reports chi2 = 91.000 = n for this pair; our linked
  // emission reproduces a near-perfect association.
  EXPECT_GT(chi2.statistic, 0.7 * static_cast<double>(db.num_baskets()));
  EXPECT_TRUE(chi2.SignificantAt(0.95));
}

TEST(TextGeneratorTest, TopicPairsCorrelated) {
  auto corpus = GenerateTextCorpus();
  ASSERT_TRUE(corpus.ok());
  const TransactionDatabase& db = corpus->database;
  BitmapCountProvider provider(db);
  auto liberia = db.dictionary().Get("liberia");
  auto west = db.dictionary().Get("west");
  if (liberia.ok() && west.ok()) {
    auto table = ContingencyTable::Build(provider, Itemset{*liberia, *west});
    ASSERT_TRUE(table.ok());
    EXPECT_TRUE(ComputeChiSquared(*table).SignificantAt(0.95));
  } else {
    GTEST_FAIL() << "topic words pruned from the corpus";
  }
}

TEST(TextGeneratorTest, ManyWordPairsCorrelatedButNotAll) {
  auto corpus = GenerateTextCorpus();
  ASSERT_TRUE(corpus.ok());
  const TransactionDatabase& db = corpus->database;
  BitmapCountProvider provider(db);
  // Pair significance rate over a strided sample of the vocabulary (every
  // third word keeps the quadratic loop cheap while covering the curated
  // head, topical middle, and filler tail).
  size_t correlated = 0;
  size_t total = 0;
  for (ItemId a = 0; a < db.num_items(); a += 3) {
    for (ItemId b = a + 3; b < db.num_items(); b += 3) {
      auto table = ContingencyTable::Build(provider, Itemset{a, b});
      ASSERT_TRUE(table.ok());
      if (ComputeChiSquared(*table).SignificantAt(0.95)) ++correlated;
      ++total;
    }
  }
  double fraction = static_cast<double>(correlated) /
                    static_cast<double>(total);
  // Paper: ~10% of word pairs correlated. Shape check: clearly some, far
  // from all.
  EXPECT_GT(fraction, 0.03);
  EXPECT_LT(fraction, 0.5);
}

TEST(TextGeneratorTest, DeterministicForSeed) {
  auto a = GenerateTextCorpus();
  auto b = GenerateTextCorpus();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->database.num_baskets(), b->database.num_baskets());
  for (size_t i = 0; i < a->database.num_baskets(); ++i) {
    EXPECT_EQ(testing::Row(a->database, i), testing::Row(b->database, i));
  }
}

TEST(TextGeneratorTest, InputValidation) {
  TextCorpusOptions bad;
  bad.num_documents = 0;
  EXPECT_TRUE(GenerateTextCorpus(bad).status().IsInvalidArgument());
  TextCorpusOptions bad2;
  bad2.min_doc_frequency = 1.5;
  EXPECT_TRUE(GenerateTextCorpus(bad2).status().IsInvalidArgument());
}

}  // namespace
}  // namespace corrmine::datagen
