// Scheduler determinism matrix (DESIGN.md §10): the work-stealing pool, the
// morsel-parallel count providers, and the pipelined level loop must never
// leak schedule noise into results. One baseline run pins the expected
// bytes; every (provider × threads) combination — repeated, because races
// are flaky by nature — must reproduce the mined rules bit for bit (double
// bit patterns included, not an epsilon compare) and render the exact same
// deterministic stats-JSON line.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/chi_squared_miner.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/stats_json.h"

namespace corrmine {
namespace {

TransactionDatabase MatrixFixture() {
  datagen::QuestOptions quest;
  quest.num_transactions = 3000;
  quest.num_items = 80;
  quest.avg_transaction_size = 10.0;
  quest.num_patterns = 20;
  quest.seed = 1997;
  auto db = datagen::GenerateQuestData(quest);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

MinerOptions MatrixMinerOptions() {
  MinerOptions options;
  options.support.min_count = 25;
  options.support.cell_fraction = 0.25;
  // Exercise §3.3 cell masking so masked-cell accounting is part of the
  // cross-schedule contract.
  options.chi2.min_expected_cell = 1.0;
  return options;
}

/// Bit pattern of a double, so the fingerprint is an exact-bytes compare —
/// "close enough" floats from a different summation order must FAIL.
uint64_t Bits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Every schedule-observable byte of a mining result: rule order, itemsets,
/// chi-squared statistics and p-values (as bit patterns), validity
/// accounting, the major-dependence cell, and the per-level stats table.
std::string ExactFingerprint(const MiningResult& result) {
  std::string out;
  for (const CorrelationRule& rule : result.significant) {
    out += rule.itemset.ToString();
    out += ':' + std::to_string(Bits(rule.chi2.statistic));
    out += ':' + std::to_string(Bits(rule.chi2.p_value));
    out += ':' + std::to_string(rule.chi2.dof);
    out += ':' + std::to_string(rule.chi2.validity.masked_cells);
    out += ':' + std::to_string(rule.major_dependence.mask);
    out += ':' + std::to_string(rule.major_dependence.observed);
    out += ':' + std::to_string(Bits(rule.major_dependence.interest));
    out += ';';
  }
  out += '|';
  for (const LevelStats& level : result.levels) {
    out += std::to_string(level.level) + '/' +
           std::to_string(level.possible_itemsets) + '/' +
           std::to_string(level.candidates) + '/' +
           std::to_string(level.discards) + '/' +
           std::to_string(level.chi2_tests) + '/' +
           std::to_string(level.masked_cells) + '/' +
           std::to_string(level.significant) + '/' +
           std::to_string(level.not_significant) + ';';
  }
  return out;
}

TEST(SchedulerDeterminismTest, MatrixByteIdentical) {
  TransactionDatabase db = MatrixFixture();
  MinerOptions options = MatrixMinerOptions();

  // Baseline: sequential bitmap — no pool, no pipeline overlap. Everything
  // else must reproduce these bytes.
  std::string fingerprint;
  std::string stats_line;
  {
    SessionOptions session_options;
    session_options.num_threads = 1;
    auto session = MiningSession::FromDatabase(db, session_options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto result = session->Mine(options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->significant.empty()) << "degenerate fixture";
    ASSERT_GE(result->levels.size(), 2u) << "fixture must reach level 3";
    fingerprint = ExactFingerprint(*result);
    stats_line = RenderDeterministicStats(*result);
  }

  constexpr int kRepeats = 2;  // same config twice: catches flaky races
  for (const SessionProvider provider :
       {SessionProvider::kBitmap, SessionProvider::kCompressed,
        SessionProvider::kScan}) {
    for (int threads : {1, 2, 8}) {
      for (int repeat = 0; repeat < kRepeats; ++repeat) {
        SessionOptions session_options;
        session_options.num_threads = threads;
        session_options.provider = provider;
        auto session = MiningSession::FromDatabase(db, session_options);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        auto result = session->Mine(options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(ExactFingerprint(*result), fingerprint)
            << "provider " << static_cast<int>(provider) << " threads "
            << threads << " repeat " << repeat;
        EXPECT_EQ(RenderDeterministicStats(*result), stats_line)
            << "provider " << static_cast<int>(provider) << " threads "
            << threads << " repeat " << repeat;
      }
    }
  }
}

// The 0-means-auto thread count (resolved from the usable core count) must
// land on the same bytes as every explicit configuration.
TEST(SchedulerDeterminismTest, AutoDetectedConfigMatchesBaseline) {
  TransactionDatabase db = MatrixFixture();
  MinerOptions options = MatrixMinerOptions();

  SessionOptions baseline_options;
  baseline_options.num_threads = 1;
  auto baseline = MiningSession::FromDatabase(db, baseline_options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto expected = baseline->Mine(options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  SessionOptions auto_options;
  auto_options.num_threads = 0;
  auto session = MiningSession::FromDatabase(db, auto_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_GE(session->num_threads(), 1);
  auto result = session->Mine(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ExactFingerprint(*result), ExactFingerprint(*expected));
  EXPECT_EQ(RenderDeterministicStats(*result),
            RenderDeterministicStats(*expected));
}

}  // namespace
}  // namespace corrmine
