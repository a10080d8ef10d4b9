// Ablation for the paper's Section 4 implementation choice: a dynamic
// perfect hash table versus std::unordered_map for the NOTSIG and CAND
// membership tests driving candidate generation.

#include <unordered_map>
#include <unordered_set>

#include <benchmark/benchmark.h>

#include "bench_metrics.h"

#include "hash/dynamic_perfect_hash.h"
#include "hash/itemset_set.h"
#include "hash/universal_hash.h"

namespace corrmine::hash {
namespace {

std::vector<uint64_t> MakeKeys(size_t count) {
  std::vector<uint64_t> keys;
  keys.reserve(count);
  SplitMix64 rng(99);
  for (size_t i = 0; i < count; ++i) keys.push_back(rng.Next());
  return keys;
}

void BM_DynamicPerfectLookupHit(benchmark::State& state) {
  auto keys = MakeKeys(static_cast<size_t>(state.range(0)));
  DynamicPerfectHash table;
  for (size_t i = 0; i < keys.size(); ++i) table.Insert(keys[i], i);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_DynamicPerfectLookupHit)->Arg(1000)->Arg(100000);

void BM_UnorderedMapLookupHit(benchmark::State& state) {
  auto keys = MakeKeys(static_cast<size_t>(state.range(0)));
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < keys.size(); ++i) table.emplace(keys[i], i);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_UnorderedMapLookupHit)->Arg(1000)->Arg(100000);

void BM_DynamicPerfectLookupMiss(benchmark::State& state) {
  auto keys = MakeKeys(100000);
  DynamicPerfectHash table;
  for (size_t i = 0; i < keys.size(); ++i) table.Insert(keys[i], i);
  uint64_t probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(probe++));
  }
}
BENCHMARK(BM_DynamicPerfectLookupMiss);

void BM_UnorderedMapLookupMiss(benchmark::State& state) {
  auto keys = MakeKeys(100000);
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < keys.size(); ++i) table.emplace(keys[i], i);
  uint64_t probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(probe++));
  }
}
BENCHMARK(BM_UnorderedMapLookupMiss);

void BM_DynamicPerfectInsert(benchmark::State& state) {
  auto keys = MakeKeys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    DynamicPerfectHash table;
    for (size_t i = 0; i < keys.size(); ++i) table.Insert(keys[i], i);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynamicPerfectInsert)->Arg(1000)->Arg(30000);

void BM_UnorderedMapInsert(benchmark::State& state) {
  auto keys = MakeKeys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unordered_map<uint64_t, uint64_t> table;
    for (size_t i = 0; i < keys.size(); ++i) table.emplace(keys[i], i);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UnorderedMapInsert)->Arg(1000)->Arg(30000);

void BM_ItemsetPerfectSetContains(benchmark::State& state) {
  ItemsetPerfectSet set;
  std::vector<Itemset> itemsets;
  for (ItemId a = 0; a < 200; ++a) {
    for (ItemId b = a + 1; b < 200; ++b) {
      itemsets.push_back(Itemset{a, b});
    }
  }
  for (const Itemset& s : itemsets) set.Insert(s);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.Contains(itemsets[i++ % itemsets.size()]));
  }
}
BENCHMARK(BM_ItemsetPerfectSetContains);

void BM_UnorderedItemsetSetContains(benchmark::State& state) {
  std::unordered_set<Itemset, ItemsetHasher> set;
  std::vector<Itemset> itemsets;
  for (ItemId a = 0; a < 200; ++a) {
    for (ItemId b = a + 1; b < 200; ++b) {
      itemsets.push_back(Itemset{a, b});
    }
  }
  set.insert(itemsets.begin(), itemsets.end());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.count(itemsets[i++ % itemsets.size()]));
  }
}
BENCHMARK(BM_UnorderedItemsetSetContains);

}  // namespace
}  // namespace corrmine::hash

// Custom main (instead of BENCHMARK_MAIN) so the run ends with a
// BENCH_METRICS registry snapshot, like the harness-style benches.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  corrmine::bench::EmitMetricsLine("bench_hash");
  return 0;
}
