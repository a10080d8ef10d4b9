// Golden sliding-window regression over the Table 4 text corpus. The
// corpus slides through time — a base window of documents, then batches of
// newer articles arriving while the oldest batch retires — and after every
// window move the border is repaired and snapshotted: window extent, the
// top correlated word pairs, the memo size, and the full deterministic
// stats line. Each step is also cross-checked against a from-scratch mine
// of the same window before it enters the snapshot, so the golden file
// records outputs the differential contract has already vouched for.
//
// When an intentional change shifts the output, regenerate with:
//   ./golden_incremental_test --update-golden
// and review the golden diff like any other code change. GOLDEN_DIR is
// injected by CMake and points into the source tree, so --update-golden
// rewrites the checked-in file in place.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/border_repair.h"
#include "core/chi_squared_miner.h"
#include "core/session.h"
#include "datagen/text_generator.h"
#include "io/stats_json.h"
#include "io/table_printer.h"

#ifndef GOLDEN_DIR
#error "GOLDEN_DIR must be defined by the build"
#endif

namespace corrmine {

// Set from main before gtest runs; outside the anonymous namespace so the
// flag-peeling main below can reach it.
bool g_update_golden = false;

namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name + ".txt";
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.flush();
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    std::cout << "updated " << path << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run ./golden_incremental_test --update-golden to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "snapshot for " << name << " diverged from " << path
      << "; if intentional, regenerate with --update-golden";
}

// Renders the window's mining result: top correlated pairs by chi2 (total
// order — ties broken by itemset), then the deterministic stats line.
std::string RenderWindow(const MiningResult& result,
                         const ItemDictionary& dictionary) {
  std::vector<const CorrelationRule*> pairs;
  for (const CorrelationRule& rule : result.significant) {
    if (rule.itemset.size() == 2) pairs.push_back(&rule);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const CorrelationRule* a, const CorrelationRule* b) {
              if (a->chi2.statistic != b->chi2.statistic) {
                return a->chi2.statistic > b->chi2.statistic;
              }
              return a->itemset < b->itemset;
            });
  std::ostringstream out;
  io::TablePrinter table({"correlated words", "chi2"});
  for (size_t i = 0; i < pairs.size() && i < 5; ++i) {
    std::string words;
    for (ItemId item : pairs[i]->itemset) {
      if (!words.empty()) words += " ";
      auto name = dictionary.Name(item);
      words += name.ok() ? *name : ("w" + std::to_string(item));
    }
    table.AddRow({words, io::FormatDouble(pairs[i]->chi2.statistic, 3)});
  }
  table.Print(out);
  out << "minimal correlated pairs: " << pairs.size() << "\n";
  out << "stats: " << RenderDeterministicStats(result) << "\n";
  return out.str();
}

TEST(GoldenIncrementalTest, Table4SlidingWindow) {
  // Twice the paper's 91 articles so the window can slide: the corpus is
  // the timeline, document order is arrival order. The paper's 10%
  // document-frequency floor keeps ~450 words, which at window-sized
  // supports makes level 3 explode (and the memo with it) — a third of the
  // corpus as the floor keeps the topical core the table is about while
  // the walk stays test-sized.
  datagen::TextCorpusOptions corpus_options;
  corpus_options.num_documents = 180;
  corpus_options.min_doc_frequency = 0.35;
  auto corpus = datagen::GenerateTextCorpus(corpus_options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const TransactionDatabase& all = corpus->database;

  auto slice = [&](size_t begin, size_t end) {
    TransactionDatabase out(all.num_items());
    for (size_t row = begin; row < end; ++row) {
      CORRMINE_CHECK(out.AddBasket(all.basket(row)).ok());
    }
    return out;
  };

  MinerOptions options;
  options.support.min_count = 8;
  options.support.cell_fraction = 0.25 + 1e-9;
  options.max_level = 3;
  options.chi2.min_expected_cell = 1.0;

  TransactionDatabase base = slice(0, 60);
  base.dictionary() = all.dictionary();
  auto inc =
      IncrementalMiner::Create(std::move(base), SessionOptions{}, options);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  // The window as chunk ranges, mirroring the miner's deque: 'a' appends
  // the given document range, 'r' retires the oldest chunk.
  struct Op {
    char kind;
    size_t begin = 0;
    size_t end = 0;
  };
  const std::vector<Op> schedule = {
      {'a', 60, 100}, {'r'}, {'a', 100, 140}, {'r'}, {'a', 140, 180},
  };
  std::vector<std::pair<size_t, size_t>> window = {{0, 60}};

  std::ostringstream out;
  out << "corpus: " << all.num_baskets()
      << " documents, vocabulary: " << all.num_items() << "\n";

  size_t step = 0;
  auto repair_and_render = [&]() {
    auto repaired = inc->Repair();
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();

    // Cross-check before the snapshot: a from-scratch mine of the same
    // window must render identically.
    TransactionDatabase window_db(all.num_items());
    for (const auto& [begin, end] : window) {
      for (size_t row = begin; row < end; ++row) {
        ASSERT_TRUE(window_db.AddBasket(all.basket(row)).ok());
      }
    }
    auto scratch_session =
        MiningSession::FromDatabase(window_db, SessionOptions{});
    ASSERT_TRUE(scratch_session.ok());
    auto scratch = scratch_session->Mine(options);
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
    const std::string rendered = RenderWindow(*repaired, all.dictionary());
    ASSERT_EQ(rendered, RenderWindow(*scratch, all.dictionary()))
        << "repair diverged from the from-scratch mine at step " << step;

    out << "\nstep " << step << ": window docs [" << window.front().first
        << ", " << window.back().second << ") — "
        << inc->session().num_baskets() << " documents, memo "
        << inc->state().counts.size() << " counts\n";
    out << rendered;
    ++step;
  };

  repair_and_render();
  for (const Op& op : schedule) {
    if (op.kind == 'a') {
      ASSERT_TRUE(inc->Append(slice(op.begin, op.end)).ok());
      window.emplace_back(op.begin, op.end);
    } else {
      ASSERT_TRUE(inc->RetireOldest().ok());
      window.erase(window.begin());
    }
    repair_and_render();
  }

  CompareOrUpdate("incremental_text_window", out.str());
}

}  // namespace
}  // namespace corrmine

// Own main so --update-golden can be peeled off before gtest parses flags.
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      corrmine::g_update_golden = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  ::testing::InitGoogleTest(&filtered_argc, args.data());
  return RUN_ALL_TESTS();
}
