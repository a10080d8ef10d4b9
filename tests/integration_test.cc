// Cross-module integration tests: generators feeding the full mining
// pipeline, asserting the qualitative shapes the paper's evaluation reports.

#include <set>

#include <gtest/gtest.h>

#include "core/chi_squared_miner.h"
#include "datagen/census_generator.h"
#include "datagen/quest_generator.h"
#include "datagen/text_generator.h"
#include "mining/association_rules.h"

namespace corrmine {
namespace {

TEST(CensusIntegration, MilitaryAgePairIsSignificant) {
  datagen::CensusOptions options;
  options.num_persons = 30370;
  auto db = datagen::GenerateCensusData(options);
  ASSERT_TRUE(db.ok());
  BitmapCountProvider provider(*db);
  // i2 (military) x i7 (age): the paper's Example 4 headline pair.
  auto table = ContingencyTable::Build(provider, Itemset{2, 7});
  ASSERT_TRUE(table.ok());
  ChiSquaredResult chi2 = ComputeChiSquared(*table);
  EXPECT_TRUE(chi2.SignificantAt(0.95));
  EXPECT_GT(chi2.statistic, 1000.0);  // Paper: 2006.34.
  EXPECT_LT(chi2.statistic, 3500.0);
}

TEST(CensusIntegration, MinerRunsOverFullCensus) {
  datagen::CensusOptions options;
  options.num_persons = 30370;
  auto db = datagen::GenerateCensusData(options);
  ASSERT_TRUE(db.ok());
  BitmapCountProvider provider(*db);
  MinerOptions miner;
  miner.support.min_count =
      static_cast<uint64_t>(0.01 * static_cast<double>(db->num_baskets()));
  miner.support.cell_fraction = 0.25 + 1e-9;
  auto result = MineCorrelations(provider, db->num_items(), miner);
  ASSERT_TRUE(result.ok());
  // Paper's Table 2: most (but not all) of the 45 pairs are correlated.
  ASSERT_FALSE(result->levels.empty());
  const LevelStats& level2 = result->levels[0];
  EXPECT_EQ(level2.possible_itemsets, 45u);
  EXPECT_GT(level2.significant, 25u);
  EXPECT_LT(level2.significant, 45u);

  // {i1, i4} and {i1, i5} are the paper's surprising *uncorrelated* pairs.
  std::set<Itemset> sig;
  for (const auto& rule : result->significant) sig.insert(rule.itemset);
  EXPECT_FALSE(sig.count(Itemset{1, 4}));
  EXPECT_FALSE(sig.count(Itemset{1, 5}));
  // The obvious correlations are found.
  EXPECT_TRUE(sig.count(Itemset{2, 7}));  // Military x age.
  EXPECT_TRUE(sig.count(Itemset{4, 5}));  // Citizenship x birthplace.
}

TEST(TextIntegration, MiningFindsTopicalPairsAndWeakTriples) {
  auto corpus = datagen::GenerateTextCorpus();
  ASSERT_TRUE(corpus.ok());
  const TransactionDatabase& db = corpus->database;
  BitmapCountProvider provider(db);
  MinerOptions miner;
  miner.support.min_count = 5;
  miner.support.cell_fraction = 0.25 + 1e-9;
  miner.max_level = 3;
  auto result = MineCorrelations(provider, db.num_items(), miner);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->levels.size(), 1u);
  EXPECT_GT(result->levels[0].significant, 0u);

  // The flagship pair must be on the border.
  auto mandela = db.dictionary().Get("mandela");
  auto nelson = db.dictionary().Get("nelson");
  ASSERT_TRUE(mandela.ok());
  ASSERT_TRUE(nelson.ok());
  std::set<Itemset> sig;
  double mandela_nelson_chi2 = 0.0;
  double max_pair_chi2 = 0.0;
  double max_triple_chi2 = 0.0;
  for (const auto& rule : result->significant) {
    sig.insert(rule.itemset);
    if (rule.itemset.size() == 2) {
      max_pair_chi2 = std::max(max_pair_chi2, rule.chi2.statistic);
    } else if (rule.itemset.size() == 3) {
      max_triple_chi2 = std::max(max_triple_chi2, rule.chi2.statistic);
    }
    if (rule.itemset == Itemset{*mandela, *nelson}) {
      mandela_nelson_chi2 = rule.chi2.statistic;
    }
  }
  EXPECT_TRUE(sig.count(Itemset{*mandela, *nelson}));
  EXPECT_GT(mandela_nelson_chi2, 60.0);  // Paper: 91.000 (= n).
  // Paper: "While some pairs of words have large chi2 values, no triple has
  // a chi2 value larger than 10."
  if (max_triple_chi2 > 0.0) {
    EXPECT_LT(max_triple_chi2, max_pair_chi2);
  }
}

TEST(QuestIntegration, PruningShapeMatchesTable5) {
  // Full-scale Quest run with the Table 5 calibration (DESIGN.md): the
  // paper's 99 997 x 870 dataset with |L| and s chosen so that the level-2
  // candidate count lands at the paper's ~8019.
  datagen::QuestOptions quest;
  quest.num_patterns = 140;
  auto db = datagen::GenerateQuestData(quest);
  ASSERT_TRUE(db.ok());
  BitmapCountProvider provider(*db);
  MinerOptions miner;
  miner.support.min_count =
      static_cast<uint64_t>(0.05 * static_cast<double>(db->num_baskets()));
  miner.support.cell_fraction = 0.25 + 1e-9;
  miner.level_one = LevelOnePruning::kFigure1Strict;
  auto result = MineCorrelations(provider, db->num_items(), miner);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->levels.size(), 2u);
  const LevelStats& level2 = result->levels[0];
  const LevelStats& level3 = result->levels[1];
  EXPECT_EQ(level2.possible_itemsets, 378015u);
  // Level-1 pruning cuts the pair candidates drastically (Table 5: 8019 of
  // 378015) ...
  EXPECT_LT(level2.candidates, 20000u);
  EXPECT_GT(level2.candidates, 2000u);
  // ... correlation + support pruning shrink each subsequent level, and
  // the search dies out within a few levels.
  EXPECT_LT(level3.candidates, level2.candidates);
  EXPECT_LT(level3.significant, level2.significant);
  EXPECT_GT(level2.significant, 0u);
  EXPECT_LE(result->levels.size(), 5u);
  // Discards stay a small fraction of candidates at level 2 (Table 5:
  // 323 of 8019).
  EXPECT_LT(level2.discards, level2.candidates / 10);
}

}  // namespace
}  // namespace corrmine
