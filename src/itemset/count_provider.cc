#include "itemset/count_provider.h"

#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "itemset/kernels.h"

namespace corrmine {

namespace {

/// Basket-axis chunk size for the scan provider's shared pass.
constexpr size_t kScanBasketGrain = 1024;

/// Prefix-group chunk size for the blocked bitmap batch: each group is a
/// full streaming pass over its operand bitmaps, so small chunks keep the
/// pool fed without drowning it in tiny tasks (the singleton batch at the
/// start of a run produces one near-trivial group per item).
constexpr size_t kBlockedGroupGrain = 8;

}  // namespace

CountProvider::CountProvider()
    : scalar_calls_(
          MetricsRegistry::Global().GetCounter("count_provider.scalar_calls")),
      batch_calls_(
          MetricsRegistry::Global().GetCounter("count_provider.batch_calls")),
      batch_queries_(MetricsRegistry::Global().GetCounter(
          "count_provider.batch_queries")) {}

void CountProvider::BumpScalar() const { scalar_calls_->Add(); }

void CountProvider::BumpBatch(size_t num_queries) const {
  batch_calls_->Add();
  batch_queries_->Add(num_queries);
}

void CountProvider::CountAllPresentBatch(std::span<const Itemset> queries,
                                         std::span<uint64_t> counts,
                                         ThreadPool* pool) const {
  CORRMINE_CHECK(queries.size() == counts.size())
      << "batch spans disagree: " << queries.size() << " queries, "
      << counts.size() << " count slots";
  BumpBatch(queries.size());
  if (queries.empty()) return;
  CountAllPresentBatchImpl(queries, counts, pool);
}

void CountProvider::CountAllPresentBatchUncounted(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  CORRMINE_CHECK(queries.size() == counts.size())
      << "batch spans disagree: " << queries.size() << " queries, "
      << counts.size() << " count slots";
  if (queries.empty()) return;
  CountAllPresentBatchImpl(queries, counts, pool);
}

void CountProvider::CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                             std::span<uint64_t> counts,
                                             ThreadPool* pool) const {
  (void)pool;  // The generic fallback has no parallel structure to exploit.
  for (size_t i = 0; i < queries.size(); ++i) {
    counts[i] = CountAllPresentImpl(queries[i]);
  }
}

uint64_t ScanCountProvider::CountAllPresentImpl(const Itemset& s) const {
  CORRMINE_CHECK(!s.empty()) << "CountAllPresent requires a non-empty set";
  uint64_t count = 0;
  for (size_t row = 0; row < db_.num_baskets(); ++row) {
    if (db_.BasketContainsAll(row, s)) ++count;
  }
  return count;
}

void ScanCountProvider::CountAllPresentBatchImpl(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  // Basket-major: one pass over the row store answers every query, keeping
  // each basket hot in cache across the whole query list instead of
  // re-reading the database per query. Chunks of the basket axis accumulate
  // into private partial sums, merged in chunk order (exact integer sums,
  // so the merge order only matters for determinism of the code path, not
  // the values).
  const size_t num_baskets = db_.num_baskets();
  const size_t num_chunks =
      num_baskets == 0 ? 0 : (num_baskets + kScanBasketGrain - 1) /
                                 kScanBasketGrain;
  for (size_t q = 0; q < queries.size(); ++q) counts[q] = 0;
  // One partial-count arena per scheduler slot (ParallelForSlots): each
  // basket-chunk morsel accumulates into its slot's arena with no locking,
  // and the arenas are folded into `counts` in slot order after the region.
  // Integer sums commute, so the result is identical for any schedule.
  const size_t num_slots = ParallelForSlotBound(pool, num_chunks, 1);
  std::vector<std::vector<uint64_t>> partials(num_slots);
  for (auto& p : partials) p.assign(queries.size(), 0);
  Status status = ParallelForSlots(
      pool, num_chunks, 1,
      [&](size_t slot, size_t begin, size_t end) -> Status {
        std::vector<uint64_t>& scratch = partials[slot];
        for (size_t chunk = begin; chunk < end; ++chunk) {
          const size_t row_begin = chunk * kScanBasketGrain;
          const size_t row_end =
              std::min(row_begin + kScanBasketGrain, num_baskets);
          for (size_t row = row_begin; row < row_end; ++row) {
            for (size_t q = 0; q < queries.size(); ++q) {
              if (db_.BasketContainsAll(row, queries[q])) ++scratch[q];
            }
          }
        }
        return Status::OK();
      });
  CORRMINE_CHECK(status.ok()) << status.ToString();
  for (const std::vector<uint64_t>& scratch : partials) {
    for (size_t q = 0; q < queries.size(); ++q) counts[q] += scratch[q];
  }
}

void BitmapCountProvider::CountAllPresentBatchImpl(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  // Prefix-blocked execution (DESIGN.md §9): group the level's queries by
  // shared (k-1)-prefix, materialize each prefix intersection tile by tile,
  // and stream every extension column against the hot tile — instead of
  // re-walking full bitmaps once per query. Parallel over groups; every
  // query writes its own slot, so any schedule is byte-identical.
  BlockedCountPlan plan = BlockedCountPlan::Build(queries);
  // Prefix groups are the morsel unit; each scheduler slot owns one
  // executor arena (tile + column/accumulator buffers), sized once and
  // reused across every morsel that slot runs.
  const size_t num_slots =
      ParallelForSlotBound(pool, plan.groups.size(), kBlockedGroupGrain);
  std::vector<BlockedExecScratch> scratch(num_slots);
  Status status = ParallelForSlots(
      pool, plan.groups.size(), kBlockedGroupGrain,
      [&](size_t slot, size_t begin, size_t end) -> Status {
        BlockedExecStats stats;
        ExecuteBlockedGroups(plan, begin, end, index_, counts, &stats,
                             &scratch[slot]);
        BumpKernelCounters(stats);
        return Status::OK();
      });
  CORRMINE_CHECK(status.ok()) << status.ToString();
}

}  // namespace corrmine
