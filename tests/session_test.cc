// MiningSession facade: one object owning the row store, one provider, the
// pool and metrics must produce exactly the results of hand-assembled
// plumbing, for every provider and thread count — and the level-wise miner
// running under it must stay on the batch counting path (one
// CountAllPresentBatch per level, zero scalar calls).

#include "core/session.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/result_io.h"
#include "io/transaction_io.h"
#include "itemset/count_provider.h"
#include "test_util.h"

namespace corrmine {
namespace {

TransactionDatabase SeededQuest(uint64_t seed) {
  datagen::QuestOptions quest;
  quest.num_transactions = 600;
  quest.num_items = 30;
  quest.avg_transaction_size = 6.0;
  quest.num_patterns = 8;
  quest.seed = seed;
  auto db = datagen::GenerateQuestData(quest);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

std::string Fingerprint(const MiningResult& result) {
  std::string out;
  for (const CorrelationRule& rule : result.significant) {
    out += rule.itemset.ToString() + ":" +
           std::to_string(rule.chi2.statistic) + ";";
  }
  for (const LevelStats& level : result.levels) {
    out += std::to_string(level.level) + "/" +
           std::to_string(level.candidates) + "/" +
           std::to_string(level.significant) + "/" +
           std::to_string(level.not_significant) + ";";
  }
  return out;
}

MinerOptions TestMinerOptions() {
  MinerOptions options;
  options.support.min_count = 8;
  options.support.cell_fraction = 0.25;
  options.chi2.min_expected_cell = 1.0;
  return options;
}

const SessionProvider kAllProviders[] = {SessionProvider::kBitmap,
                                         SessionProvider::kCompressed,
                                         SessionProvider::kScan};

TransactionDatabase Concatenate(const TransactionDatabase& base,
                                const TransactionDatabase& delta) {
  TransactionDatabase combined = base;
  if (delta.num_items() > combined.num_items()) {
    EXPECT_TRUE(combined.GrowItemSpace(delta.num_items()).ok());
  }
  for (size_t row = 0; row < delta.num_baskets(); ++row) {
    EXPECT_TRUE(combined.AddBasket(delta.basket(row)).ok());
  }
  return combined;
}

TEST(MiningSessionTest, InvalidOptionsRejected) {
  TransactionDatabase db = SeededQuest(7);
  SessionOptions negative_threads;
  negative_threads.num_threads = -1;
  EXPECT_FALSE(MiningSession::FromDatabase(db, negative_threads).ok());
}

TEST(MiningSessionTest, OpensTextAndBinaryFiles) {
  TransactionDatabase db = SeededQuest(42);
  std::string text_path = ::testing::TempDir() + "/session_open.txt";
  ASSERT_TRUE(io::WriteTransactionFile(db, text_path).ok());
  std::string bin_path = ::testing::TempDir() + "/session_open.bin";
  ASSERT_TRUE(io::WriteBinaryTransactionFile(db, bin_path).ok());

  auto baseline = MiningSession::FromDatabase(db, {});
  ASSERT_TRUE(baseline.ok());
  auto expected = baseline->Mine(TestMinerOptions());
  ASSERT_TRUE(expected.ok());

  for (const std::string& path : {text_path, bin_path}) {
    auto session = MiningSession::Open(path, {});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session->num_baskets(), db.num_baskets());
    auto result = session->Mine(TestMinerOptions());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Fingerprint(*result), Fingerprint(*expected)) << path;
  }
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());

  EXPECT_FALSE(MiningSession::Open("/nonexistent/baskets.txt", {}).ok());
}

TEST(MiningSessionTest, FrequentMinersAgreeWithMonolithicBaseline) {
  TransactionDatabase db = SeededQuest(1997);
  BitmapCountProvider provider(db);
  AprioriOptions apriori;
  apriori.min_support_fraction = 0.02;
  apriori.max_level = 3;
  auto expected = MineFrequentItemsets(provider, db.num_items(), apriori);
  ASSERT_TRUE(expected.ok());

  SessionOptions options;
  options.num_threads = 2;
  auto session = MiningSession::FromDatabase(db, options);
  ASSERT_TRUE(session.ok());
  auto frequent = session->MineFrequent(apriori);
  ASSERT_TRUE(frequent.ok()) << frequent.status().ToString();
  ASSERT_EQ(frequent->size(), expected->size());

  EclatOptions eclat;
  eclat.min_support_fraction = 0.02;
  eclat.max_level = 3;
  auto eclat_frequent = session->MineFrequentEclat(eclat);
  ASSERT_TRUE(eclat_frequent.ok()) << eclat_frequent.status().ToString();
  ASSERT_EQ(eclat_frequent->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*eclat_frequent)[i].itemset, (*expected)[i].itemset);
    EXPECT_EQ((*eclat_frequent)[i].count, (*expected)[i].count);
  }
}

TEST(MiningSessionTest, LevelWiseMinerStaysOnBatchPath) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TransactionDatabase db = SeededQuest(1997);

  // The batch-per-level contract (DESIGN.md §7) holds for EVERY provider
  // strategy: no per-candidate scalar counts, and exactly one batch per
  // level — the singleton marginals batch plus one per mined level. A
  // provider without batch overrides would fall back to scalar counting
  // and fail the scalar_calls == 0 pin.
  for (const SessionProvider provider : kAllProviders) {
    SessionOptions options;
    options.provider = provider;
    auto session = MiningSession::FromDatabase(db, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session->provider_kind(), provider);

    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.Reset();
    auto result = session->Mine(TestMinerOptions());
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(registry.GetCounter("count_provider.scalar_calls")->Value(),
              0u)
        << "provider " << static_cast<int>(provider);
    EXPECT_EQ(registry.GetCounter("count_provider.batch_calls")->Value(),
              result->levels.size() + 1)
        << "provider " << static_cast<int>(provider);
    EXPECT_GT(registry.GetCounter("count_provider.batch_queries")->Value(),
              0u);
  }
}

TEST(MiningSessionTest, AllProvidersAgreeAcrossThreads) {
  TransactionDatabase db = SeededQuest(1997);
  BitmapCountProvider reference(db);
  auto baseline =
      MineCorrelations(reference, db.num_items(), TestMinerOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string fingerprint = Fingerprint(*baseline);
  ASSERT_FALSE(baseline->significant.empty()) << "degenerate fixture";

  for (const SessionProvider provider : kAllProviders) {
    for (int threads : {1, 2, 8}) {
      SessionOptions options;
      options.provider = provider;
      options.num_threads = threads;
      auto session = MiningSession::FromDatabase(db, options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ(session->num_baskets(), db.num_baskets());
      auto result = session->Mine(TestMinerOptions());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Fingerprint(*result), fingerprint)
          << "provider " << static_cast<int>(provider) << " threads "
          << threads;
    }
  }
}

// Delta ingestion through the facade: AppendBatch must leave the session
// indistinguishable from one opened over the concatenated data, for every
// provider — including a delta that widens the item space.
TEST(MiningSessionTest, AppendBatchMatchesFromScratchSession) {
  TransactionDatabase base = SeededQuest(1997);
  TransactionDatabase delta = SeededQuest(4711);
  ASSERT_TRUE(delta.GrowItemSpace(base.num_items() + 5).ok());
  const TransactionDatabase combined = Concatenate(base, delta);

  for (const SessionProvider provider : kAllProviders) {
    SessionOptions options;
    options.provider = provider;
    auto session = MiningSession::FromDatabase(base, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    // Mine the base rows first so the append lands on a used index.
    ASSERT_TRUE(session->Mine(TestMinerOptions()).ok());
    ASSERT_TRUE(session->AppendBatch(delta).ok());
    EXPECT_EQ(session->num_baskets(), combined.num_baskets());
    EXPECT_EQ(session->num_items(), combined.num_items());

    auto scratch = MiningSession::FromDatabase(combined, options);
    ASSERT_TRUE(scratch.ok());
    auto appended = session->Mine(TestMinerOptions());
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    auto rebuilt = scratch->Mine(TestMinerOptions());
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(Fingerprint(*appended), Fingerprint(*rebuilt))
        << "provider " << static_cast<int>(provider);
  }
}

// The scan and compressed providers hold a reference into the session's
// row store, so the row store must stay put when the session moves. Move
// the session (then overwrite the moved-from object so a dangling reference
// would read a different row store), append, mine: the output must be
// byte-identical to a fresh session over base+delta.
TEST(MiningSessionTest, MovedSessionAppendsAndMinesLikeFreshSession) {
  TransactionDatabase base = SeededQuest(1997);
  TransactionDatabase delta = SeededQuest(4711);
  const TransactionDatabase combined = Concatenate(base, delta);

  for (const SessionProvider provider : kAllProviders) {
    SessionOptions options;
    options.provider = provider;
    auto built = MiningSession::FromDatabase(base, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    MiningSession moved(std::move(*built));
    built = MiningSession::FromDatabase(SeededQuest(7), options);
    ASSERT_TRUE(built.ok());
    MiningSession session = std::move(*built);
    session = std::move(moved);

    ASSERT_TRUE(session.AppendBatch(delta).ok());
    auto appended = session.Mine(TestMinerOptions());
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();

    auto fresh = MiningSession::FromDatabase(combined, options);
    ASSERT_TRUE(fresh.ok());
    auto expected = fresh->Mine(TestMinerOptions());
    ASSERT_TRUE(expected.ok());
    ASSERT_FALSE(expected->significant.empty()) << "degenerate fixture";
    EXPECT_EQ(io::SerializeMiningResult(*appended),
              io::SerializeMiningResult(*expected))
        << "provider " << static_cast<int>(provider);
  }
}

}  // namespace
}  // namespace corrmine
