#include "core/chi_squared_miner.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/phase_scope.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "hash/itemset_set.h"
#include "itemset/kernels.h"

namespace corrmine {

uint64_t BinomialCount(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  unsigned __int128 result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
    if (result > UINT64_MAX) return UINT64_MAX;
  }
  return static_cast<uint64_t>(result);
}

namespace {

Status ValidateOptions(const MinerOptions& options) {
  if (!(options.confidence_level > 0.0 && options.confidence_level < 1.0)) {
    return Status::InvalidArgument("confidence_level must be in (0,1)");
  }
  if (!(options.support.cell_fraction > 0.0 &&
        options.support.cell_fraction <= 1.0)) {
    return Status::InvalidArgument("support cell_fraction must be in (0,1]");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::OK();
}

/// One evaluated candidate, parked in an index-addressed slot so batches
/// evaluated out of order merge back deterministically.
struct EvalSlot {
  enum class Kind : uint8_t { kDiscard, kSig, kNotSig };
  Kind kind = Kind::kDiscard;
  ChiSquaredResult chi2;      // kSig only.
  CellInterest major;         // kSig only.
  /// §3.3 low-expectation cells excluded from this candidate's statistic
  /// (recorded for kSig and kNotSig; discards never reach the test).
  uint64_t masked_cells = 0;
};

/// Counter handles for one mining run, resolved once so the per-level
/// fan-in pays a handful of sharded adds, not registry lookups.
struct MinerCounters {
  explicit MinerCounters(MetricsRegistry* registry)
      : candidates(registry->GetCounter("miner.candidates")),
        discards(registry->GetCounter("miner.discards_cell_support")),
        chi2_tests(registry->GetCounter("miner.chi2_tests")),
        masked_cells(registry->GetCounter("miner.masked_cells")),
        sig(registry->GetCounter("miner.sig")),
        notsig(registry->GetCounter("miner.notsig")),
        levels(registry->GetCounter("miner.levels")) {}

  void AddLevel(const LevelStats& stats) const {
    candidates->Add(stats.candidates);
    discards->Add(stats.discards);
    chi2_tests->Add(stats.chi2_tests);
    masked_cells->Add(stats.masked_cells);
    sig->Add(stats.significant);
    notsig->Add(stats.not_significant);
    levels->Add();
  }

  Counter* candidates;
  Counter* discards;
  Counter* chi2_tests;
  Counter* masked_cells;
  Counter* sig;
  Counter* notsig;
  Counter* levels;
};

/// Chunk granularity for work stealing across candidate evaluation. Each
/// candidate is a 2^k-cell table assembly plus a chi-squared test, so even
/// small chunks are meaty.
constexpr size_t kEvalGrain = 16;

/// One level's NOTSIG, kept in the perfect hash Figure 1 names (§4, [7]).
/// The set's insertion-ordered itemsets() is the level's NOTSIG list, in
/// candidate (hence lexicographic) order, and `counts[i]` is the
/// all-present count of itemsets()[i], known since it was counted as a
/// candidate. The Step-8 prune makes every proper subset of two or more
/// items of a later candidate a NOTSIG member of its own level, so later
/// levels read those counts here instead of counting them again.
struct NotSigTable {
  hash::ItemsetPerfectSet set;
  std::vector<uint64_t> counts;
};

/// Fills the 2^k all-present counts of candidate `s` (bit j of the mask =
/// the j-th item present): the empty mask is n, the full mask the
/// candidate's own count, singletons come from `item_counts`, and every
/// other submask from the NOTSIG table of its size.
Status FillAllPresent(const Itemset& s, uint64_t n, uint64_t count,
                      const std::vector<uint64_t>& item_counts,
                      const std::vector<NotSigTable>& not_sig,
                      std::span<uint64_t> all_present) {
  const size_t k = s.size();
  const uint32_t full = (uint32_t{1} << k) - 1;
  all_present[0] = n;
  all_present[full] = count;
  ItemId items[ContingencyTable::kMaxItems];
  for (uint32_t m = 1; m < full; ++m) {
    size_t size = 0;
    for (size_t j = 0; j < k; ++j) {
      if ((m >> j) & 1) items[size++] = s.item(j);
    }
    if (size == 1) {
      all_present[m] = item_counts[items[0]];
      continue;
    }
    const NotSigTable& table = not_sig[size];
    const std::optional<size_t> index = table.set.Find({items, size});
    if (!index.has_value()) {
      return Status::Internal(
          "subset " + Itemset(std::vector<ItemId>(items, items + size))
                          .ToString() +
          " of candidate " + s.ToString() + " is not in the level-" +
          std::to_string(size) + " NOTSIG table");
    }
    all_present[m] = table.counts[*index];
  }
  return Status::OK();
}

/// Step 8: the level-(k+1) candidates from level k's NOTSIG list. The list
/// is lexicographic, so join partners (members sharing a (k-1)-prefix)
/// form contiguous runs, and a pair (a, b) of a run unions to the prefix
/// plus both last items. Of that union's k-subsets, the two that drop a
/// last item are b and a themselves; only the other k-1 are looked up.
/// Runs are joined and pruned in parallel, an Itemset is built only for a
/// surviving union, and the runs concatenate in run order — the
/// sequential pairwise join, reproduced.
StatusOr<std::vector<Itemset>> GenerateCandidates(
    const hash::ItemsetPerfectSet& not_sig, size_t k, ThreadPool* pool) {
  const std::vector<Itemset>& members = not_sig.itemsets();
  std::vector<std::pair<size_t, size_t>> runs;  // [begin, end), size >= 2
  size_t run_begin = 0;
  for (size_t i = 1; i <= members.size(); ++i) {
    if (i < members.size() &&
        std::equal(members[i].begin(), members[i].begin() + (k - 1),
                   members[run_begin].begin())) {
      continue;
    }
    if (i - run_begin >= 2) runs.emplace_back(run_begin, i);
    run_begin = i;
  }

  std::vector<std::vector<Itemset>> joined(runs.size());
  CORRMINE_RETURN_NOT_OK(ParallelFor(
      pool, runs.size(), 1, [&](size_t r_begin, size_t r_end) -> Status {
        ItemId join[ContingencyTable::kMaxItems];
        ItemId subset[ContingencyTable::kMaxItems];
        for (size_t r = r_begin; r < r_end; ++r) {
          const auto [begin, end] = runs[r];
          std::copy_n(members[begin].begin(), k - 1, join);
          for (size_t a = begin; a < end; ++a) {
            join[k - 1] = members[a].item(k - 1);
            for (size_t b = a + 1; b < end; ++b) {
              join[k] = members[b].item(k - 1);
              bool all_not_sig = true;
              for (size_t drop = 0; drop + 1 < k && all_not_sig; ++drop) {
                std::copy_n(join, drop, subset);
                std::copy_n(join + drop + 1, k - drop, subset + drop);
                all_not_sig = not_sig.Find({subset, k}).has_value();
              }
              if (all_not_sig) {
                joined[r].emplace_back(
                    std::vector<ItemId>(join, join + k + 1));
              }
            }
          }
        }
        return Status::OK();
      }));
  size_t total = 0;
  for (const std::vector<Itemset>& run : joined) total += run.size();
  std::vector<Itemset> next;
  next.reserve(total);
  for (std::vector<Itemset>& run : joined) {
    std::move(run.begin(), run.end(), std::back_inserter(next));
  }
  return next;
}

}  // namespace

StatusOr<MiningResult> MineCorrelations(const CountProvider& provider,
                                        ItemId num_items,
                                        const MinerOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateOptions(options));
  if (provider.num_baskets() == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }
  MiningResult result;

  MetricsRegistry& registry =
      options.metrics ? *options.metrics : MetricsRegistry::Global();
  registry.GetCounter("miner.runs")->Add();
  MinerCounters counters(&registry);
  PhaseScope run_phase(&registry, "miner.mine", -1, -1,
                       static_cast<int64_t>(num_items));
  // Which counting kernel served this run, as a trace marker (value =
  // KernelIsa). Deliberately kept out of the deterministic stats — the
  // kernel is machine-dependent while the counts it produces are not.
  TraceInstant("kernel.selected", -1, -1,
               static_cast<int64_t>(ActiveKernels().isa));
  // The progress heartbeat needs wall clock even when the metrics layer is
  // compiled out, so it reads std::chrono directly — but only when a
  // callback is installed.
  const auto run_start = options.progress
                             ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

  // Pool ownership: one pool per mining run, reused across levels — unless
  // the caller (typically a MiningSession) lends one, in which case it is
  // borrowed for the duration of the call. The calling thread participates
  // in every parallel region, so an owned pool of (threads - 1) workers
  // yields `threads` concurrent evaluators.
  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads - 1);
    pool = owned_pool.get();
  }

  // Step 1: count O(i) for every item — one batch over the singletons.
  uint64_t n = provider.num_baskets();
  std::vector<Itemset> singletons;
  singletons.reserve(num_items);
  for (ItemId i = 0; i < num_items; ++i) singletons.push_back(Itemset{i});
  std::vector<uint64_t> item_counts(num_items);
  provider.CountAllPresentBatch(singletons, item_counts, pool);

  const int max_level = options.max_level > 0
                            ? std::min(options.max_level,
                                       ContingencyTable::kMaxItems)
                            : ContingencyTable::kMaxItems;

  // Step 3: level-2 candidates via level-1 pruning, morsel-parallel over
  // the first-item axis (the inner loop shrinks as `a` grows, so small
  // chunks let stealing even out the triangle). Per-chunk outputs are
  // concatenated in chunk order — the sequential (a, b) enumeration,
  // reproduced.
  std::vector<Itemset> cand;
  {
    constexpr size_t kPairGenGrain = 16;
    const size_t num_rows = num_items;
    const size_t num_gen_chunks =
        num_rows == 0 ? 0 : (num_rows + kPairGenGrain - 1) / kPairGenGrain;
    std::vector<std::vector<Itemset>> gen_chunks(num_gen_chunks);
    CORRMINE_RETURN_NOT_OK(ParallelFor(
        pool, num_rows, kPairGenGrain,
        [&](size_t begin, size_t end) -> Status {
          std::vector<Itemset>& out = gen_chunks[begin / kPairGenGrain];
          for (size_t a = begin; a < end; ++a) {
            for (ItemId b = static_cast<ItemId>(a) + 1; b < num_items; ++b) {
              if (PairPassesLevelOne(item_counts[a], item_counts[b], n,
                                     options.support, options.level_one)) {
                out.push_back(Itemset{static_cast<ItemId>(a), b});
              }
            }
          }
          return Status::OK();
        }));
    size_t total = 0;
    for (const std::vector<Itemset>& chunk : gen_chunks) total += chunk.size();
    cand.reserve(total);
    for (std::vector<Itemset>& chunk : gen_chunks) {
      std::move(chunk.begin(), chunk.end(), std::back_inserter(cand));
    }
  }

  // NOTSIG of every level visited so far, indexed by level: later levels
  // read their candidates' subset counts here, and the last one kept is the
  // frontier. SIG is appended to the output as discovered.
  std::vector<NotSigTable> not_sig(static_cast<size_t>(max_level) + 1);
  int frontier_level = 0;

  for (int level = 2; level <= max_level; ++level) {
    PhaseScope level_phase(&registry, "miner.level", level, -1,
                           static_cast<int64_t>(cand.size()));
    LevelStats stats;
    stats.level = level;
    stats.possible_itemsets = BinomialCount(num_items, level);

    NotSigTable& level_not_sig = not_sig[static_cast<size_t>(level)];
    // Skip NOTSIG bookkeeping when this is the last level we will visit —
    // nothing consumes it, and on dense data it is the memory high-water
    // mark — unless the caller asked for the frontier.
    const bool keep_not_sig = level < max_level || options.keep_frontier;
    const bool gen_next = level < max_level;
    std::vector<Itemset> next_cand;

    // One level is three steps, each finished before the next starts:
    // count every candidate in ONE CountAllPresentBatch (Step 6), evaluate
    // them in parallel into index-addressed slots and commit the verdicts
    // serially in candidate order (Step 7), then join and prune the new
    // NOTSIG into the next level's candidates (Step 8). Committing in
    // candidate order keeps the output byte-identical for any thread count
    // or provider.
    if (!cand.empty()) {
      TraceInstant("miner.candidates", level, -1,
                   static_cast<int64_t>(cand.size()));
      std::vector<uint64_t> cand_counts(cand.size());
      {
        PhaseScope count_phase(&registry, "miner.count_batch", level, -1,
                               static_cast<int64_t>(cand.size()));
        provider.CountAllPresentBatch(cand, cand_counts, pool);
      }

      {
        PhaseScope eval_phase(&registry, "miner.evaluate", level, -1,
                              static_cast<int64_t>(cand.size()));
        std::vector<EvalSlot> slots(cand.size());
        // Per-slot scratch: the 2^k all-present vector each chunk assembles
        // tables from, sized once per level and reused across chunks.
        std::vector<std::vector<uint64_t>> eval_scratch(
            ParallelForSlotBound(pool, cand.size(), kEvalGrain),
            std::vector<uint64_t>(size_t{1} << level));
        CORRMINE_RETURN_NOT_OK(ParallelForSlots(
            pool, cand.size(), kEvalGrain,
            [&](size_t slot, size_t begin, size_t end) -> Status {
              std::vector<uint64_t>& all_present = eval_scratch[slot];
              for (size_t i = begin; i < end; ++i) {
                CORRMINE_RETURN_NOT_OK(FillAllPresent(cand[i], n,
                                                      cand_counts[i],
                                                      item_counts, not_sig,
                                                      all_present));
                CORRMINE_ASSIGN_OR_RETURN(
                    ContingencyTable table,
                    ContingencyTable::FromAllPresentCounts(cand[i],
                                                           all_present));
                if (!HasCellSupport(table, options.support)) {
                  slots[i].kind = EvalSlot::Kind::kDiscard;
                  continue;
                }
                ChiSquaredResult chi2 = ComputeChiSquared(table, options.chi2);
                slots[i].masked_cells = chi2.validity.masked_cells;
                if (chi2.SignificantAt(options.confidence_level)) {
                  slots[i].kind = EvalSlot::Kind::kSig;
                  slots[i].chi2 = chi2;
                  slots[i].major = MajorDependenceCell(table);
                } else {
                  slots[i].kind = EvalSlot::Kind::kNotSig;
                }
              }
              return Status::OK();
            }));

        for (size_t i = 0; i < cand.size(); ++i) {
          ++stats.candidates;
          switch (slots[i].kind) {
            case EvalSlot::Kind::kDiscard:
              ++stats.discards;
              break;
            case EvalSlot::Kind::kSig:
              ++stats.significant;
              ++stats.chi2_tests;
              stats.masked_cells += slots[i].masked_cells;
              result.significant.push_back(CorrelationRule{
                  std::move(cand[i]), slots[i].chi2, slots[i].major});
              break;
            case EvalSlot::Kind::kNotSig:
              ++stats.not_significant;
              ++stats.chi2_tests;
              stats.masked_cells += slots[i].masked_cells;
              if (keep_not_sig) {
                level_not_sig.set.Insert(std::move(cand[i]));
                level_not_sig.counts.push_back(cand_counts[i]);
              }
              break;
          }
        }
        // SIG and NOTSIG members were moved out; free the rest before the
        // join allocates the next level.
        cand = {};
      }

      if (gen_next) {
        PhaseScope gen_phase(&registry, "miner.generate", level, -1,
                             static_cast<int64_t>(level_not_sig.set.size()));
        CORRMINE_ASSIGN_OR_RETURN(
            next_cand, GenerateCandidates(level_not_sig.set,
                                          static_cast<size_t>(level), pool));
      }
    }

    bool exhausted = stats.candidates == 0;
    if (!exhausted) {
      result.levels.push_back(stats);
      counters.AddLevel(stats);
    }
    // Level-boundary peak-RSS sample: the gauge is last-write-wins and
    // ru_maxrss is monotone, so this tracks *when* the peak grew (visible
    // per level in --trace-out via the dump, not just at session end).
    registry.GetGauge("mem.peak_rss_bytes")
        ->Set(static_cast<int64_t>(PeakRssBytes()));

    if (options.progress && !exhausted) {
      MinerProgress heartbeat;
      heartbeat.level = level;
      heartbeat.candidates = stats.candidates;
      heartbeat.frontier = level_not_sig.set.size();
      heartbeat.significant_total = result.significant.size();
      heartbeat.elapsed_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        run_start)
              .count();
      options.progress(heartbeat);
    }
    if (exhausted) break;
    frontier_level = level;
    cand = std::move(next_cand);
    if (level_not_sig.set.size() < 2 || level == max_level) break;
  }

  if (options.keep_frontier) {
    result.frontier =
        not_sig[static_cast<size_t>(frontier_level)].set.itemsets();
  }
  return result;
}

}  // namespace corrmine
