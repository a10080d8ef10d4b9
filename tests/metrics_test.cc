#include "common/metrics.h"

#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/phase_scope.h"
#include "common/profiler.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/chi_squared_miner.h"
#include "core/chi_squared_test.h"
#include "core/contingency_table.h"
#include "datagen/quest_generator.h"
#include "io/json_reader.h"
#include "itemset/count_provider.h"

namespace corrmine {
namespace {

TEST(CounterTest, AddsAndSums) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  c->Add();
  c->Add(41);
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(c->Value(), 42u);
  } else {
    EXPECT_EQ(c->Value(), 0u);
  }
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) c->Add();
    });
  }
  for (std::thread& t : threads) t.join();
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
  } else {
    EXPECT_EQ(c->Value(), 0u);
  }
}

TEST(GaugeTest, LastWriteWins) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(7);
  g->Set(-3);
  EXPECT_EQ(g->Value(), kMetricsEnabled ? -3 : 0);
}

TEST(HistogramTest, TracksCountSumMinMax) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist");
  h->Observe(1);
  h->Observe(100);
  h->Observe(7);
  Histogram::Data data = h->Value();
  EXPECT_EQ(data.count, 3u);
  EXPECT_EQ(data.sum, 108u);
  EXPECT_EQ(data.min, 1u);
  EXPECT_EQ(data.max, 100u);
  uint64_t bucket_total = 0;
  for (uint64_t b : data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 3u);
}

TEST(RegistryTest, SameNameSameHandle) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_NE(registry.GetCounter("x"), registry.GetCounter("y"));
  EXPECT_EQ(registry.GetHistogram("x"), registry.GetHistogram("x"));
}

TEST(RegistryTest, ResetKeepsHandlesValidAndZeroes) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reset.me");
  c->Add(5);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  c->Add(2);  // Handle still live after Reset.
  EXPECT_EQ(c->Value(), kMetricsEnabled ? 2u : 0u);
}

TEST(RegistryTest, ToJsonHasSchemaSections) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(3);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"metrics_compiled\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // Spans live in the trace rings only; the registry keeps no span tail.
  EXPECT_EQ(json.find("\"spans"), std::string::npos);
  // Single line by construction (grep-comparable).
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// --- PhaseScope: one scope feeds histogram, counter and trace ring -----

/// Begin/end events of `name` recorded by the global tracer, over all
/// threads.
struct SpanEdges {
  std::vector<TraceEvent> begins;
  std::vector<TraceEvent> ends;
};
SpanEdges CollectEdges(const std::string& name) {
  SpanEdges edges;
  for (const Tracer::ThreadTrace& thread : Tracer::Global().Collect()) {
    for (const TraceEvent& event : thread.events) {
      if (name != event.name) continue;
      if (event.phase == TraceEventPhase::kBegin) edges.begins.push_back(event);
      if (event.phase == TraceEventPhase::kEnd) edges.ends.push_back(event);
    }
  }
  return edges;
}

class PhaseScopeTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Global().Stop(); }
};

TEST_F(PhaseScopeTest, InactiveTracerStillFeedsTheRegistry) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  Tracer::Global().Start();  // Drop rings left by earlier tests...
  Tracer::Global().Stop();   // ...and leave the tracer inactive.
  MetricsRegistry registry;
  { PhaseScope scope(&registry, "untraced.phase"); }
  { PhaseScope scope(&registry, "untraced.phase"); }
  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("untraced.phase.calls"), 2u);
  EXPECT_EQ(snap.histograms.at("untraced.phase.ns").count, 2u);
  EXPECT_TRUE(CollectEdges("untraced.phase").begins.empty());
  EXPECT_TRUE(CollectEdges("untraced.phase").ends.empty());
}

TEST_F(PhaseScopeTest, NestedScopesRecordBothPhasesAndNestedSpans) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry registry;
  Tracer::Global().Start();
  {
    PhaseScope outer(&registry, "outer.phase", 2, -1, 42);
    PhaseScope inner(&registry, "inner.phase");
  }
  { PhaseScope no_registry(nullptr, "trace.only"); }
  Tracer::Global().Stop();

  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("outer.phase.calls"), 1u);
  EXPECT_EQ(snap.counters.at("inner.phase.calls"), 1u);
  EXPECT_GE(snap.histograms.at("outer.phase.ns").sum,
            snap.histograms.at("inner.phase.ns").sum);
  EXPECT_EQ(snap.counters.count("trace.only.calls"), 0u);

  const SpanEdges outer = CollectEdges("outer.phase");
  const SpanEdges inner = CollectEdges("inner.phase");
  ASSERT_EQ(outer.begins.size(), 1u);
  ASSERT_EQ(outer.ends.size(), 1u);
  ASSERT_EQ(inner.begins.size(), 1u);
  ASSERT_EQ(inner.ends.size(), 1u);
  EXPECT_EQ(outer.begins[0].level, 2);
  EXPECT_EQ(outer.begins[0].value, 42);
  // Strict nesting on one clock: outer opens first and closes last.
  EXPECT_LE(outer.begins[0].ts_ns, inner.begins[0].ts_ns);
  EXPECT_LE(inner.begins[0].ts_ns, inner.ends[0].ts_ns);
  EXPECT_LE(inner.ends[0].ts_ns, outer.ends[0].ts_ns);
  EXPECT_EQ(CollectEdges("trace.only").begins.size(), 1u);
  EXPECT_EQ(CollectEdges("trace.only").ends.size(), 1u);
}

TEST_F(PhaseScopeTest, ConcurrentPoolScopesCountExactly) {
  MetricsRegistry registry;
  ThreadPool pool(3);
  constexpr size_t kScopes = 2000;
  Tracer::Global().Start();
  Status status = ParallelFor(&pool, kScopes, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      PhaseScope scope(&registry, "worker.phase", -1, -1,
                       static_cast<int64_t>(i));
    }
    return Status::OK();
  });
  Tracer::Global().Stop();
  ASSERT_TRUE(status.ok()) << status.ToString();
  if constexpr (!kMetricsEnabled) return;
  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("worker.phase.calls"), kScopes);
  EXPECT_EQ(snap.histograms.at("worker.phase.ns").count, kScopes);
  ASSERT_EQ(Tracer::Global().DroppedEvents(), 0u);
  EXPECT_EQ(CollectEdges("worker.phase").begins.size(), kScopes);
  EXPECT_EQ(CollectEdges("worker.phase").ends.size(), kScopes);
}

// --- Instrumentation determinism across thread counts -----------------

datagen::QuestOptions SmallQuest() {
  datagen::QuestOptions quest;
  quest.num_transactions = 2000;
  quest.num_items = 60;
  quest.avg_transaction_size = 8.0;
  quest.num_patterns = 15;
  return quest;
}

MinerOptions SmallMinerOptions() {
  MinerOptions options;
  options.support.min_count = 20;
  options.support.cell_fraction = 0.25;
  return options;
}

TEST(MinerMetricsTest, RegistryCountersMatchLevelStats) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  auto db = datagen::GenerateQuestData(SmallQuest());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BitmapCountProvider provider(*db);
  MinerOptions options = SmallMinerOptions();
  MetricsRegistry registry;
  options.metrics = &registry;
  auto result = MineCorrelations(provider, db->num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->levels.empty());

  uint64_t candidates = 0, chi2_tests = 0, sig = 0, masked = 0;
  for (const LevelStats& level : result->levels) {
    candidates += level.candidates;
    chi2_tests += level.chi2_tests;
    sig += level.significant;
    masked += level.masked_cells;
    EXPECT_EQ(level.chi2_tests, level.candidates - level.discards);
  }
  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("miner.candidates"), candidates);
  EXPECT_EQ(snap.counters.at("miner.chi2_tests"), chi2_tests);
  EXPECT_EQ(snap.counters.at("miner.sig"), sig);
  EXPECT_EQ(snap.counters.at("miner.masked_cells"), masked);
  EXPECT_EQ(snap.counters.at("miner.runs"), 1u);
  EXPECT_EQ(snap.counters.at("miner.levels"), result->levels.size());
  EXPECT_GE(snap.histograms.at("miner.level.ns").count,
            result->levels.size());
  // The level-boundary peak-RSS gauge: set after every completed level, so
  // a finished run always carries the process high-water mark.
  ASSERT_EQ(snap.gauges.count("mem.peak_rss_bytes"), 1u);
  EXPECT_GT(snap.gauges.at("mem.peak_rss_bytes"), 0);
}

TEST(MinerMetricsTest, EveryMinerPhaseReachesEverySink) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  auto db = datagen::GenerateQuestData(SmallQuest());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BitmapCountProvider provider(*db);
  MinerOptions options = SmallMinerOptions();
  options.num_threads = 2;
  MetricsRegistry registry;
  options.metrics = &registry;
  ProfilerOptions pmu;
  pmu.pmu = true;
  Profiler::Global().Start(pmu);
  const bool pmu_active = Profiler::Global().pmu_active();
  Tracer::Global().Start();
  auto result = MineCorrelations(provider, db->num_items(), options);
  Tracer::Global().Stop();
  Profiler::Global().Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->levels.size(), 2u);  // Level 2 generates level 3.
  ASSERT_EQ(Tracer::Global().DroppedEvents(), 0u);

  // Balance B/E per thread in the exported Chrome trace: every end closes
  // the innermost open begin of the same name on its thread.
  auto doc = io::ParseJson(Tracer::Global().ToChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const io::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // The same walk checks that a level's phases run one after another:
  // every miner.evaluate and miner.generate span is a direct child of
  // miner.level, and a level's evaluate ends before its generate begins.
  std::map<double, std::vector<std::string>> open;
  std::map<std::string, uint64_t> pairs;
  std::map<double, int64_t> open_level;   // tid -> innermost miner.level
  std::map<int64_t, double> evaluate_end;  // level -> ts
  std::map<int64_t, double> generate_begin;
  for (const io::JsonValue& event : events->array) {
    const std::string& name = event.Find("name")->string_value;
    const std::string& ph = event.Find("ph")->string_value;
    const double tid = event.Find("tid")->number_value;
    const double ts = event.Find("ts")->number_value;
    std::vector<std::string>& stack = open[tid];
    if (ph == "B") {
      if (name == "miner.level") {
        open_level[tid] = static_cast<int64_t>(
            event.Find("args")->Find("level")->number_value);
      }
      if (name == "miner.evaluate" || name == "miner.generate") {
        ASSERT_FALSE(stack.empty()) << name << " outside any span";
        EXPECT_EQ(stack.back(), "miner.level") << name;
      }
      if (name == "miner.generate") {
        EXPECT_TRUE(generate_begin.emplace(open_level[tid], ts).second);
      }
      stack.push_back(name);
    }
    if (ph == "E") {
      ASSERT_FALSE(stack.empty()) << "unmatched end of " << name;
      ASSERT_EQ(stack.back(), name);
      stack.pop_back();
      ++pairs[name];
      if (name == "miner.evaluate") {
        EXPECT_TRUE(evaluate_end.emplace(open_level[tid], ts).second);
      }
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed spans on tid " << tid;
  }
  ASSERT_FALSE(generate_begin.empty());
  for (const auto& [level, begin] : generate_begin) {
    ASSERT_EQ(evaluate_end.count(level), 1u) << "level " << level;
    EXPECT_LE(evaluate_end.at(level), begin) << "level " << level;
  }

  const auto profile = Profiler::Global().PhaseSnapshot();
  MetricsRegistry::Snapshot snap = registry.Snap();
  for (const char* phase : {"miner.mine", "miner.level", "miner.count_batch",
                            "miner.evaluate", "miner.generate"}) {
    SCOPED_TRACE(phase);
    const std::string name(phase);
    ASSERT_EQ(snap.histograms.count(name + ".ns"), 1u);
    const uint64_t scopes = snap.histograms.at(name + ".ns").count;
    EXPECT_GE(scopes, 1u);
    EXPECT_EQ(snap.counters.at(name + ".calls"), scopes);
    EXPECT_EQ(pairs[name], scopes);
    if (pmu_active) {
      ASSERT_EQ(profile.count(name), 1u);
      EXPECT_EQ(profile.at(name).scopes, scopes);
    }
  }
}

// --- §3.3 low-expectation masking accounting ---------------------------

TEST(MaskedCellsTest, HandBuiltLowExpectationPairIsMasked) {
  // n=100, both items occur 5 times, never together: E[both present] =
  // 100 * 0.05 * 0.05 = 0.25 < 1.0, so exactly that one cell is masked at
  // min_expected_cell = 1.0 (the other three expectations are 4.75, 4.75,
  // and 90.25).
  TransactionDatabase db(2);
  for (int i = 0; i < 5; ++i) db.AddBasket({0});
  for (int i = 0; i < 5; ++i) db.AddBasket({1});
  for (int i = 0; i < 90; ++i) db.AddBasket({});
  BitmapCountProvider provider(db);

  auto table = ContingencyTable::Build(provider, Itemset{0, 1});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ChiSquaredOptions chi2_options;
  chi2_options.min_expected_cell = 1.0;
  ChiSquaredResult chi2 = ComputeChiSquared(*table, chi2_options);
  EXPECT_EQ(chi2.validity.masked_cells, 1u);

  ChiSquaredOptions unmasked;
  unmasked.min_expected_cell = 0.0;
  EXPECT_EQ(ComputeChiSquared(*table, unmasked).validity.masked_cells, 0u);
}

TEST(MaskedCellsTest, MinerLevelStatsCarryMaskedCells) {
  // Same fixture, but counted through the miner: force the pair to be a
  // candidate (support threshold at its observed cell counts) and check
  // the masking shows up in LevelStats.
  TransactionDatabase db(2);
  for (int i = 0; i < 5; ++i) db.AddBasket({0});
  for (int i = 0; i < 5; ++i) db.AddBasket({1});
  for (int i = 0; i < 90; ++i) db.AddBasket({});
  BitmapCountProvider provider(db);

  MinerOptions options;
  options.support.min_count = 1;
  options.support.cell_fraction = 0.5;  // 2 of 4 cells ≥ 1 suffices.
  options.level_one = LevelOnePruning::kNone;
  options.chi2.min_expected_cell = 1.0;
  MetricsRegistry registry;
  options.metrics = &registry;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->levels.size(), 1u);
  EXPECT_EQ(result->levels[0].chi2_tests, 1u);
  EXPECT_EQ(result->levels[0].masked_cells, 1u);
}

}  // namespace
}  // namespace corrmine
