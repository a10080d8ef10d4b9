#include "core/chi_squared_miner.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
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

/// Candidate generation for level k+1 (Figure 1, Step 8) is split so it can
/// overlap the level-k evaluation pipeline instead of running as a serial
/// phase at the start of the next level:
///
///   1. *Raw joins per NOTSIG run.* The NOTSIG list is lexicographically
///      sorted by construction (candidates arrive in lex order and the
///      fan-in appends in order), so join partners sharing a (k-1)-prefix
///      form contiguous runs. The moment the ordered fan-in closes a run
///      (the next NOTSIG's prefix differs), the run's pairwise joins are
///      enumerated — as a pool morsel while later candidates are still
///      being evaluated. Within a run every union has size k+1 (same
///      prefix, distinct last items), exactly the pairs the sequential
///      join loop would emit.
///   2. *Deferred subset filter.* The Step-8 prune (every k-subset must be
///      NOTSIG) needs the level's complete NOTSIG set, so it runs after the
///      pipeline drains: parallel over runs, order-preserving within each.
///
/// Concatenating the filtered runs in run order reproduces the sequential
/// candidate stream byte for byte.
void EnumerateRunJoins(const Itemset* members, size_t count,
                       std::vector<Itemset>* out) {
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      out->push_back(members[i].Union(members[j]));
    }
  }
}

bool AllSubsetsNotSig(const Itemset& joined,
                      const hash::ItemsetPerfectSet& not_sig_set) {
  for (const Itemset& subset : joined.SubsetsMissingOne()) {
    if (!not_sig_set.Contains(subset)) return false;
  }
  return true;
}

/// Tracks the NOTSIG prefix runs of one level and farms each closed run's
/// raw-join enumeration out to the pool. `frontier` must never reallocate
/// while jobs are in flight (the caller reserves it to the candidate
/// count), and `joins` likewise holds a stable slot per run.
struct RunJoiner {
  const std::vector<Itemset>* frontier = nullptr;
  size_t prefix_len = 0;
  size_t run_start = 0;
  std::vector<std::vector<Itemset>> joins;

  std::atomic<size_t> outstanding{0};
  std::mutex mu;
  std::condition_variable cv;

  /// Closes the run [run_start, end_index) and starts the next one. Call
  /// with end_index == frontier->size() after the fan-in to flush the tail.
  void CloseRun(ThreadPool* pool, size_t end_index) {
    const size_t begin = run_start;
    run_start = end_index;
    if (end_index - begin < 2) return;  // No pairs to join.
    joins.emplace_back();
    std::vector<Itemset>* out = &joins.back();
    const Itemset* members = frontier->data() + begin;
    const size_t count = end_index - begin;
    if (pool == nullptr) {
      EnumerateRunJoins(members, count, out);
      return;
    }
    outstanding.fetch_add(1, std::memory_order_relaxed);
    pool->Submit([this, members, count, out] {
      EnumerateRunJoins(members, count, out);
      if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }

  /// True when `frontier[index]` starts a new run (its (k-1)-prefix differs
  /// from the previous member's).
  bool StartsNewRun(size_t index) const {
    if (index == 0) return false;
    const Itemset& prev = (*frontier)[index - 1];
    const Itemset& cur = (*frontier)[index];
    for (size_t t = 0; t < prefix_len; ++t) {
      if (prev.item(t) != cur.item(t)) return true;
    }
    return false;
  }

  void Drain(ThreadPool* pool) {
    if (pool == nullptr) return;
    pool->HelpUntil(mu, cv, [this] {
      return outstanding.load(std::memory_order_acquire) == 0;
    });
  }
};

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

/// The deduplicated all-items-present queries of one level, plus the
/// per-candidate index table that maps every nonzero submask of every
/// candidate to its slot in the batch answer. Sibling candidates share
/// almost all of their proper subsets (the join emits runs with a common
/// (k-1)-prefix, and every (k-1)-subset is itself a NOTSIG member), so the
/// deduplicated batch is typically several times smaller than the naive
/// per-candidate query stream — that, not just parallel fan-out, is where
/// the batch API's throughput comes from (DESIGN.md §7).
/// Dedup sharding parameters. 64 shards = 6 bits of the subset hash; the
/// shard axis is the stage-2 parallel unit, so shard count bounds dedup
/// parallelism while staying cheap to bucket into.
constexpr size_t kDedupShards = 64;
/// Candidates per stage-1 bucketing chunk.
constexpr size_t kDedupChunkCands = 256;
/// Flat entries per stage-3 id-remap chunk.
constexpr size_t kRemapGrain = size_t{1} << 14;

/// Mixed FNV-1a over a subset's items. The top bits pick the dedup shard
/// and the low bits the open-addressing probe, so the final mix keeps them
/// independent. Internal to the plan build — nothing persists it.
uint64_t HashSubset(const ItemId* items, size_t k) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < k; ++i) {
    h ^= items[i];
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

struct LevelQueryPlan {
  std::vector<Itemset> queries;
  /// cand_query_index[ci * num_cells + m] answers submask m of candidate
  /// ci; entry 0 of each row is unused (the empty mask is n).
  std::vector<uint32_t> cand_query_index;
  uint32_t num_cells = 0;

  /// Builds the plan for a level of uniform-size candidates.
  ///
  /// Deduplication is hash-sharded so it parallelizes and — equally
  /// important on small machines — never allocates per probe: stage 1
  /// buckets every (candidate, submask) reference by subset hash into
  /// (chunk, shard) buckets; stage 2 dedups each shard independently with
  /// a flat open-addressing table, walking its buckets in chunk order and
  /// materializing an Itemset only on first touch; stage 3 turns
  /// (shard, local id) into global ids by prefix-summed shard bases. Every
  /// stage is a pure function of the candidate stream, so the plan is
  /// identical for any thread count — only the query *order* differs from
  /// the old serial first-touch walk, which nothing downstream observes
  /// (grouping, counts and counters all come out the same).
  static LevelQueryPlan Build(const std::vector<Itemset>& cand, int level,
                              ThreadPool* pool) {
    LevelQueryPlan plan;
    const int k = level;
    plan.num_cells = uint32_t{1} << k;
    plan.cand_query_index.assign(cand.size() * plan.num_cells, 0);

    // Stage 1: bucket subset references by shard. An entry is the subset's
    // hash plus its (candidate, mask) coordinates; the subset itself is
    // rebuilt from those coordinates when needed, so buckets stay POD.
    struct Entry {
      uint64_t hash;
      uint64_t cand_mask;  // ci << 32 | m
    };
    const size_t num_chunks =
        (cand.size() + kDedupChunkCands - 1) / kDedupChunkCands;
    std::vector<std::vector<Entry>> buckets(num_chunks * kDedupShards);
    Status status = ParallelFor(
        pool, num_chunks, 1, [&](size_t c_begin, size_t c_end) -> Status {
          ItemId items[ContingencyTable::kMaxItems];
          for (size_t chunk = c_begin; chunk < c_end; ++chunk) {
            std::vector<Entry>* out = &buckets[chunk * kDedupShards];
            const size_t ci_begin = chunk * kDedupChunkCands;
            const size_t ci_end =
                std::min(ci_begin + kDedupChunkCands, cand.size());
            for (size_t ci = ci_begin; ci < ci_end; ++ci) {
              const Itemset& s = cand[ci];
              for (uint32_t m = 1; m < plan.num_cells; ++m) {
                size_t kk = 0;
                for (int j = 0; j < k; ++j) {
                  if ((m >> j) & 1) items[kk++] = s.item(j);
                }
                const uint64_t h = HashSubset(items, kk);
                out[h >> 58].push_back(
                    Entry{h, (static_cast<uint64_t>(ci) << 32) | m});
              }
            }
          }
          return Status::OK();
        });
    CORRMINE_CHECK(status.ok()) << status.ToString();

    // Stage 2: dedup each shard with a flat open-addressing table, chunks
    // in order (first touch within a shard is schedule-independent).
    // cand_query_index temporarily holds (shard << 26 | local id) + 1.
    struct Shard {
      std::vector<Itemset> queries;
      std::vector<uint64_t> hashes;
    };
    std::vector<Shard> shards(kDedupShards);
    status = ParallelFor(
        pool, kDedupShards, 1, [&](size_t s_begin, size_t s_end) -> Status {
          ItemId items[ContingencyTable::kMaxItems];
          for (size_t s = s_begin; s < s_end; ++s) {
            size_t entries = 0;
            for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
              entries += buckets[chunk * kDedupShards + s].size();
            }
            if (entries == 0) continue;
            size_t cap = 16;
            while (cap < 2 * entries) cap <<= 1;
            const size_t probe_mask = cap - 1;
            std::vector<uint32_t> table(cap, 0);  // local id + 1
            Shard& shard = shards[s];
            for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
              for (const Entry& e : buckets[chunk * kDedupShards + s]) {
                const size_t ci = static_cast<size_t>(e.cand_mask >> 32);
                const uint32_t m = static_cast<uint32_t>(e.cand_mask);
                const Itemset& sc = cand[ci];
                size_t kk = 0;
                for (int j = 0; j < k; ++j) {
                  if ((m >> j) & 1) items[kk++] = sc.item(j);
                }
                size_t idx = e.hash & probe_mask;
                uint32_t local;
                for (;;) {
                  const uint32_t v = table[idx];
                  if (v == 0) {
                    local = static_cast<uint32_t>(shard.queries.size());
                    // Strict bound: the +1 temp encoding below must not wrap
                    // at (shard 63, local 2^26-1).
                    CORRMINE_CHECK(local + 1 < (uint32_t{1} << 26))
                        << "dedup shard overflow";
                    table[idx] = local + 1;
                    shard.queries.emplace_back(
                        std::vector<ItemId>(items, items + kk));
                    shard.hashes.push_back(e.hash);
                    break;
                  }
                  const uint32_t cand_local = v - 1;
                  if (shard.hashes[cand_local] == e.hash) {
                    const Itemset& q = shard.queries[cand_local];
                    if (q.size() == kk &&
                        std::equal(items, items + kk, q.begin())) {
                      local = cand_local;
                      break;
                    }
                  }
                  idx = (idx + 1) & probe_mask;
                }
                plan.cand_query_index[ci * plan.num_cells + m] =
                    ((static_cast<uint32_t>(s) << 26) | local) + 1;
              }
            }
          }
          return Status::OK();
        });
    CORRMINE_CHECK(status.ok()) << status.ToString();

    // Stage 3: shard-base prefix sums, then rewrite every reference to its
    // global id and splice the shard query lists in shard order.
    size_t bases[kDedupShards];
    size_t total = 0;
    for (size_t s = 0; s < kDedupShards; ++s) {
      bases[s] = total;
      total += shards[s].queries.size();
    }
    plan.queries.resize(total);
    status = ParallelFor(
        pool, kDedupShards, 1, [&](size_t s_begin, size_t s_end) -> Status {
          for (size_t s = s_begin; s < s_end; ++s) {
            std::move(shards[s].queries.begin(), shards[s].queries.end(),
                      plan.queries.begin() + static_cast<ptrdiff_t>(bases[s]));
          }
          return Status::OK();
        });
    CORRMINE_CHECK(status.ok()) << status.ToString();
    status = ParallelFor(
        pool, plan.cand_query_index.size(), kRemapGrain,
        [&](size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            const uint32_t enc = plan.cand_query_index[i];
            if (enc == 0) continue;  // Mask-0 slots stay unused.
            const uint32_t packed = enc - 1;
            plan.cand_query_index[i] = static_cast<uint32_t>(
                bases[packed >> 26] + (packed & ((uint32_t{1} << 26) - 1)));
          }
          return Status::OK();
        });
    CORRMINE_CHECK(status.ok()) << status.ToString();
    return plan;
  }
};

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

  // The NOTSIG frontier of the last processed level (kept for the frontier
  // output and the continue-mining condition); SIG is appended to the
  // output as discovered.
  std::vector<Itemset> not_sig;

  for (int level = 2; level <= max_level; ++level) {
    PhaseScope level_phase(&registry, "miner.level", level, -1,
                           static_cast<int64_t>(cand.size()));
    LevelStats stats;
    stats.level = level;
    stats.possible_itemsets = BinomialCount(num_items, level);

    std::vector<Itemset> next_not_sig;
    hash::ItemsetPerfectSet next_not_sig_set;
    // Skip NOTSIG bookkeeping when this is the last level we will visit —
    // nothing consumes it, and on dense data it is the memory high-water
    // mark — unless the caller asked for the frontier.
    const bool keep_not_sig = level < max_level || options.keep_frontier;
    // Whether another level can follow: only then are next-level joins
    // enumerated (overlapped with this level's evaluation).
    const bool gen_next = level < max_level;
    std::vector<Itemset> next_cand;

    // Steps 6-7, batched per level: CAND is materialized whole, its
    // deduplicated submask queries are answered by ONE CountAllPresentBatch
    // call against the provider, and candidates are then streamed through
    // an ordered evaluation pipeline (support test, then chi-squared, into
    // index-addressed slots) whose single-threaded consumer commits
    // verdicts *in stream order* while later chunks are still evaluating —
    // so the output is byte-identical whatever the thread count or provider,
    // including the inline single-threaded path.
    //
    // Materializing CAND trades the old 32-MB streaming discipline for the
    // single-batch contract that batching providers need (issuing one
    // round trip per level instead of one per candidate); CAND at level k
    // is bounded by the NOTSIG join, which pruning keeps far below the
    // raw C(|I|, k) lattice width.
    if (!cand.empty()) {
      TraceInstant("miner.candidates", level, -1,
                   static_cast<int64_t>(cand.size()));
      LevelQueryPlan plan = [&] {
        PhaseScope plan_phase(&registry, "miner.plan", level, -1,
                              static_cast<int64_t>(cand.size()));
        return LevelQueryPlan::Build(cand, level, pool);
      }();
      std::vector<uint64_t> query_counts(plan.queries.size());
      {
        PhaseScope count_phase(&registry, "miner.count_batch", level, -1,
                               static_cast<int64_t>(plan.queries.size()));
        provider.CountAllPresentBatch(plan.queries, query_counts, pool);
      }

      std::vector<EvalSlot> slots(cand.size());
      PhaseScope eval_phase(&registry, "miner.evaluate", level, -1,
                            static_cast<int64_t>(cand.size()));
      // The fan-in appends NOTSIG members in candidate order; runs of a
      // shared (k-1)-prefix close as soon as the next member's prefix
      // differs, and each closed run's raw joins are enumerated as pool
      // morsels *while later candidates are still being evaluated*. The
      // frontier is reserved up front so in-flight join morsels read
      // stable storage.
      RunJoiner joiner;
      joiner.frontier = &next_not_sig;
      joiner.prefix_len = static_cast<size_t>(level) - 1;
      if (keep_not_sig) next_not_sig.reserve(cand.size());
      if (gen_next) joiner.joins.reserve(cand.size());

      // Per-slot evaluation scratch: the 2^k all-present vector each chunk
      // assembles tables from, sized once per level and reused across every
      // chunk that slot runs.
      const size_t eval_slots =
          OrderedPipelineSlotBound(pool, cand.size(), kEvalGrain);
      std::vector<std::vector<uint64_t>> eval_scratch(eval_slots);
      Status eval_status = OrderedPipeline(
          pool, cand.size(), kEvalGrain,
          [&](size_t slot, size_t begin, size_t end) -> Status {
            std::vector<uint64_t>& all_present = eval_scratch[slot];
            if (all_present.size() < plan.num_cells) {
              all_present.resize(plan.num_cells);
            }
            for (size_t i = begin; i < end; ++i) {
              all_present[0] = n;
              const uint32_t* row = &plan.cand_query_index[i * plan.num_cells];
              for (uint32_t m = 1; m < plan.num_cells; ++m) {
                all_present[m] = query_counts[row[m]];
              }
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
          },
          // Deterministic fan-in: the ordered consumer walks the slots in
          // candidate order, so SIG/NOTSIG/stat updates match the
          // sequential history exactly.
          [&](size_t begin, size_t end) -> Status {
            for (size_t i = begin; i < end; ++i) {
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
                    next_not_sig_set.Insert(cand[i]);
                    next_not_sig.push_back(std::move(cand[i]));
                    const size_t t = next_not_sig.size() - 1;
                    if (gen_next && joiner.StartsNewRun(t)) {
                      joiner.CloseRun(pool, t);
                    }
                  }
                  break;
              }
            }
            return Status::OK();
          });
      // In-flight join morsels hold pointers into `next_not_sig` and
      // `joiner.joins` — drain them before any return, including the error
      // one, or the early exit would free storage under a live task.
      if (gen_next) joiner.Drain(pool);
      CORRMINE_RETURN_NOT_OK(eval_status);

      // Step 8, finished off: flush the tail run, drain in-flight join
      // morsels, then apply the subset prune (which needs the *complete*
      // NOTSIG set) in parallel over runs. Filtered runs concatenate in
      // run order — the sequential candidate stream, byte for byte.
      if (gen_next) {
        joiner.CloseRun(pool, next_not_sig.size());
        joiner.Drain(pool);
        PhaseScope gen_phase(&registry, "miner.generate", level, -1,
                             static_cast<int64_t>(joiner.joins.size()));
        CORRMINE_RETURN_NOT_OK(ParallelFor(
            pool, joiner.joins.size(), 1,
            [&](size_t begin, size_t end) -> Status {
              for (size_t r = begin; r < end; ++r) {
                std::vector<Itemset>& run = joiner.joins[r];
                run.erase(std::remove_if(run.begin(), run.end(),
                                         [&](const Itemset& joined) {
                                           return !AllSubsetsNotSig(
                                               joined, next_not_sig_set);
                                         }),
                          run.end());
              }
              return Status::OK();
            }));
        size_t total = 0;
        for (const std::vector<Itemset>& run : joiner.joins) {
          total += run.size();
        }
        next_cand.reserve(total);
        for (std::vector<Itemset>& run : joiner.joins) {
          std::move(run.begin(), run.end(), std::back_inserter(next_cand));
        }
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
      heartbeat.frontier = next_not_sig.size();
      heartbeat.significant_total = result.significant.size();
      heartbeat.elapsed_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        run_start)
              .count();
      options.progress(heartbeat);
    }
    if (exhausted) break;
    not_sig = std::move(next_not_sig);
    cand = std::move(next_cand);
    if (not_sig.size() < 2 || level == max_level) break;
  }

  if (options.keep_frontier) {
    result.frontier = std::move(not_sig);
  }
  return result;
}

}  // namespace corrmine
