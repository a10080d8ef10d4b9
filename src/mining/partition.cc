#include "mining/partition.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/phase_scope.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/border_repair.h"
#include "io/column_store.h"
#include "io/transaction_io.h"
#include "itemset/count_provider.h"
#include "itemset/counting_column.h"

namespace corrmine {

namespace {

/// Decorator for the pass-1 partition mines: records every count query the
/// level-wise walk issues, deduplicated, in first-issue order. The order
/// matters: partition mines run concurrently under the admission
/// controller and the caller merges each partition's recording in
/// partition order under a global cap, so replaying first-issue order
/// makes the merged candidate union identical for any thread count or
/// admission width. Uses the uncounted inner entry points so the
/// count_provider.* counters reflect the miner's own call pattern, not
/// the decoration.
class RecordingCountProvider : public CountProvider {
 public:
  /// `cap` bounds the recorded set: once reached, further queries are
  /// simply not recorded (they become memo misses, answered exactly by the
  /// final walk's streaming fallback) so the warm-up structures cannot
  /// outgrow the memory budget on candidate-explosion workloads.
  RecordingCountProvider(const CountProvider& inner, size_t cap)
      : inner_(inner), cap_(cap) {}

  uint64_t num_baskets() const override { return inner_.num_baskets(); }

  /// The recording in first-issue order, surrendered to the merger.
  std::vector<Itemset> TakeRecorded() { return std::move(ordered_); }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override {
    Record(s);
    uint64_t count = 0;
    inner_.CountAllPresentBatchUncounted(std::span<const Itemset>(&s, 1),
                                         std::span<uint64_t>(&count, 1),
                                         nullptr);
    return count;
  }

  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override {
    for (const Itemset& q : queries) {
      if (seen_.size() >= cap_) break;
      Record(q);
    }
    inner_.CountAllPresentBatchUncounted(queries, counts, pool);
  }

 private:
  void Record(const Itemset& q) const {
    if (seen_.size() >= cap_) return;
    if (seen_.insert(q).second) ordered_.push_back(q);
  }

  const CountProvider& inner_;
  const size_t cap_;
  // The miner issues queries from the walking thread only; inner
  // parallelism lives below the provider boundary, so plain containers
  // suffice. mutable: the recording is bookkeeping under const counting.
  mutable std::unordered_set<Itemset, ItemsetHasher> seen_;
  mutable std::vector<Itemset> ordered_;
};

/// Exact global counts by streaming the CCS partition files: each batch
/// maps one partition at a time, counts against it with the compressed
/// provider, and unmaps before the next — resident cost stays near one
/// partition. This is the MemoCountProvider fallback in the final walk, so
/// even queries the pass-1 warm-up never saw are answered exactly (at the
/// price of one extra streaming sweep per missed batch).
class PartitionStreamCountProvider : public CountProvider {
 public:
  PartitionStreamCountProvider(const std::vector<std::string>* paths,
                               uint64_t num_baskets)
      : paths_(paths), num_baskets_(num_baskets) {}

  uint64_t num_baskets() const override { return num_baskets_; }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override {
    uint64_t count = 0;
    CountAllPresentBatchImpl(std::span<const Itemset>(&s, 1),
                             std::span<uint64_t>(&count, 1), nullptr);
    return count;
  }

  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override {
    std::fill(counts.begin(), counts.end(), uint64_t{0});
    std::vector<uint64_t> partial(queries.size());
    for (const std::string& path : *paths_) {
      StatusOr<std::unique_ptr<io::MappedColumnShard>> shard =
          io::MappedColumnShard::Open(path);
      CORRMINE_CHECK(shard.ok())
          << "out-of-core spill file vanished mid-mine: "
          << shard.status().message();
      CompressedCountProvider provider(
          std::vector<const ColumnSource*>{shard.value().get()});
      provider.CountAllPresentBatchUncounted(queries, partial, pool);
      for (size_t i = 0; i < counts.size(); ++i) counts[i] += partial[i];
    }
  }

 private:
  const std::vector<std::string>* paths_;
  uint64_t num_baskets_;
};

}  // namespace

StatusOr<MiningResult> MineCorrelationsOutOfCore(
    const std::string& path, const OutOfCoreMinerOptions& options,
    OutOfCoreStats* stats) {
  if (options.memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory budget must be positive");
  }
  if (options.partition_budget_bytes > options.memory_budget_bytes) {
    return Status::InvalidArgument(
        "partition budget exceeds the memory budget");
  }
  // getrusage peak RSS is process-monotone; snapshot it so the budget
  // warning below only fires when THIS mine raised the peak (an earlier,
  // bigger run in the same process would otherwise trip it forever).
  const uint64_t peak_on_entry = PeakRssBytes();
  const std::string spill_dir =
      options.spill_dir.empty() ? path + ".spill" : options.spill_dir;
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    return Status::IOError("cannot create spill dir " + spill_dir + ": " +
                           ec.message());
  }

  MetricsRegistry& registry = options.miner.metrics != nullptr
                                  ? *options.miner.metrics
                                  : MetricsRegistry::Global();
  registry.GetGauge("mem.memory_budget_bytes")
      ->Set(static_cast<int64_t>(options.memory_budget_bytes));

  // Partition sizing: closing a partition briefly holds the row vectors
  // (~R bytes of uint32), the built columns (<= R payload), and the
  // serialized file string (~payload) at once — about 3x the accumulated
  // row bytes — and the budget must also cover the base process. The
  // budget/6 default leaves half the budget for everything else; explicit
  // --partition-budget values are taken verbatim (validated above).
  const uint64_t partition_row_bytes =
      options.partition_budget_bytes != 0
          ? options.partition_budget_bytes
          : std::max<uint64_t>(options.memory_budget_bytes / 6,
                               uint64_t{1} << 20);

  // Thread plumbing mirrors MineCorrelations: one pool spans all passes so
  // thread-count semantics (0 = hardware) resolve exactly once. Resolved
  // before the spill because pass-1 mines pipeline into it.
  const int threads = ThreadPool::ResolveThreadCount(options.miner.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.miner.pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads - 1);
    pool = owned_pool.get();
  }
  MinerOptions base = options.miner;
  base.num_threads = threads;
  base.pool = pool;

  // Admission controller: cap concurrent partitions so admitted x
  // per-partition budget stays inside half the memory budget (the other
  // half covers the spill accumulator and the warm-up structures). At the
  // default partition budget this admits min(threads, 3); a partition
  // budget equal to the memory budget forces admitted = 1 — exactly the
  // serial map-count-unmap behavior this path degrades to without a pool.
  const size_t admitted =
      pool == nullptr
          ? size_t{1}
          : static_cast<size_t>(std::clamp<uint64_t>(
                options.memory_budget_bytes / (2 * partition_row_bytes), 1,
                static_cast<uint64_t>(threads)));
  registry.GetGauge("outofcore.admitted_partitions")
      ->Set(static_cast<int64_t>(admitted));

  // Spill files are removed on EVERY exit path (including mid-pass error
  // returns) unless the caller asked to keep them; paths register before
  // the write so partial files from failed writes are removed too.
  struct SpillGuard {
    std::vector<std::string> paths;
    std::string dir;
    bool keep = false;
    ~SpillGuard() {
      if (keep) return;
      std::error_code guard_ec;
      for (const std::string& p : paths) {
        std::filesystem::remove(p, guard_ec);
      }
      std::filesystem::remove(dir, guard_ec);  // only succeeds when empty
    }
  } guard;
  guard.dir = spill_dir;
  guard.keep = options.keep_spill;

  // --- Spill + pass 1, pipelined: one streaming pass over the input
  // builds CCS partition files, and each file's partition mine is
  // submitted as a scheduler task the moment it closes, so pass-1 counting
  // overlaps spill I/O. The caller merges finished recordings strictly in
  // partition order (blocking admission until the merge frontier frees a
  // slot), which makes the merged candidate union — and therefore every
  // downstream deterministic stat — independent of thread count and
  // admission width.
  //
  // A recorded query costs ~300 bytes across the warm-up structures (set
  // node, sorted candidate copy, count slots, memo node); cap the union so
  // they stay a bounded fraction of the budget. Queries past the cap fall
  // back to exact streaming counts in the final walk.
  const size_t query_cap = std::max<uint64_t>(
      4096, options.memory_budget_bytes / 512);

  struct PartitionTask {
    size_t index = 0;
    std::string path;
    uint64_t rows = 0;
    uint64_t min_count = 1;
    ItemId num_items = 0;
    Status status;
    std::vector<Itemset> recorded;  // first-issue order, capped
    bool done = false;
  };

  std::deque<PartitionTask> tasks;  // deque: stable element addresses
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;   // submitted, not yet merged
  size_t next_merge = 0;  // merge frontier (partition order)
  Status pass1_error;     // first failure in partition order
  std::unordered_set<Itemset, ItemsetHasher> recorded_union;

  // One partition's pass-1 mine: map the shard, mine at the task's scaled
  // support, keep the capped query recording. Runs on a worker under
  // admission, or inline on the caller at admitted = 1.
  const auto mine_partition = [&base, &registry,
                               query_cap](PartitionTask* t) {
    PhaseScope phase(&registry, "outofcore.mine_partition", -1,
                     static_cast<int>(t->index), static_cast<int>(t->rows));
    if (t->num_items == 0) return;  // all-empty baskets: nothing to record
    StatusOr<std::unique_ptr<io::MappedColumnShard>> shard =
        io::MappedColumnShard::Open(t->path);
    if (!shard.ok()) {
      t->status = shard.status();
      return;
    }
    CompressedCountProvider provider(
        std::vector<const ColumnSource*>{shard.value().get()});
    RecordingCountProvider recording(provider, query_cap);
    MinerOptions local = base;
    local.keep_frontier = false;
    local.progress = nullptr;
    local.support.min_count = t->min_count;
    const StatusOr<MiningResult> mined =
        MineCorrelations(recording, t->num_items, local);
    if (!mined.ok()) {
      t->status = mined.status();
      return;
    }
    t->recorded = recording.TakeRecorded();
  };

  // Folds every finished task at the merge frontier into the global union
  // (capped) and frees its admission slot. Caller thread only; mu held.
  const auto merge_ready = [&]() {
    while (next_merge < tasks.size() && tasks[next_merge].done) {
      PartitionTask& t = tasks[next_merge];
      if (pass1_error.ok() && !t.status.ok()) pass1_error = t.status;
      for (Itemset& q : t.recorded) {
        if (recorded_union.size() >= query_cap) break;
        recorded_union.insert(std::move(q));
      }
      t.recorded = {};
      ++next_merge;
      --in_flight;
    }
  };

  // Blocks the caller (helping with queued work, never parking idle while
  // tasks exist) until all submitted partition mines are merged.
  const auto drain_pass1 = [&]() {
    if (pool == nullptr) {
      std::unique_lock<std::mutex> lock(mu);
      merge_ready();
      return;
    }
    pool->HelpUntil(mu, cv, [&]() {
      merge_ready();
      return next_merge == tasks.size();
    });
  };

  std::vector<std::string> part_paths;
  std::vector<uint64_t> part_rows;
  std::vector<std::vector<uint32_t>> rows_by_item;
  uint64_t local_rows = 0;
  uint64_t local_bytes = 0;
  uint64_t total_rows = 0;
  uint64_t spilled_raw = 0;
  uint64_t spilled_encoded = 0;
  uint64_t bytes_consumed = 0;
  uint64_t input_file_bytes = 0;
  {
    std::error_code size_ec;
    const auto file_size = std::filesystem::file_size(path, size_ec);
    if (!size_ec) input_file_bytes = static_cast<uint64_t>(file_size);
  }

  const auto close_partition = [&]() -> Status {
    if (local_rows == 0) return Status::OK();
    const size_t index = part_paths.size();
    const ItemId part_items = static_cast<ItemId>(rows_by_item.size());
    PhaseScope phase(&registry, "outofcore.spill_partition", -1,
                     static_cast<int>(index), static_cast<int>(local_rows));
    CompressedVerticalIndex vindex(local_rows, std::move(rows_by_item));
    rows_by_item = {};
    std::string part_path =
        spill_dir + "/part-" + std::to_string(index) + ".ccs";
    guard.paths.push_back(part_path);
    io::ColumnShardWriteStats wstats;
    CORRMINE_RETURN_NOT_OK(
        io::WriteColumnShardFile(vindex, part_path, &wstats));
    spilled_raw += wstats.raw_payload_bytes;
    spilled_encoded += wstats.payload_bytes;
    part_paths.push_back(part_path);
    part_rows.push_back(local_rows);

    // Scaled pass-1 support without knowing the final row count yet: a
    // total estimated from the byte fraction consumed so far. It is a
    // pure function of the input prefix and file size — deterministic
    // across thread counts — and only a warm-up heuristic: the final walk
    // is exact whatever threshold the partition mines used.
    uint64_t est_total_rows = total_rows;
    if (input_file_bytes > bytes_consumed && bytes_consumed > 0) {
      est_total_rows = std::max<uint64_t>(
          total_rows,
          static_cast<uint64_t>(static_cast<double>(total_rows) *
                                static_cast<double>(input_file_bytes) /
                                static_cast<double>(bytes_consumed)));
    }

    tasks.emplace_back();
    PartitionTask* task = &tasks.back();
    task->index = index;
    task->path = part_path;
    task->rows = local_rows;
    task->num_items = part_items;
    task->min_count = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::floor(
               static_cast<double>(base.support.min_count) *
               static_cast<double>(local_rows) /
               static_cast<double>(est_total_rows))));
    local_rows = 0;
    local_bytes = 0;

    if (pool == nullptr || admitted == 1) {
      // Degraded/serial admission: mine at close on this thread — still
      // one shard mapped at a time, exactly the pre-pipeline residency.
      std::unique_lock<std::mutex> lock(mu);
      ++in_flight;
      merge_ready();
      if (pass1_error.ok()) {
        lock.unlock();
        mine_partition(task);
        lock.lock();
      }
      task->done = true;
      merge_ready();
      return pass1_error;
    }

    {
      std::unique_lock<std::mutex> lock(mu);
      merge_ready();
      if (pass1_error.ok() && in_flight >= admitted) {
        lock.unlock();
        pool->HelpUntil(mu, cv, [&]() {
          merge_ready();
          return !pass1_error.ok() || in_flight < admitted;
        });
        lock.lock();
      }
      if (!pass1_error.ok()) {
        // A merged partition failed: drain what is still running, then
        // abort the stream (the guard removes the spill files).
        lock.unlock();
        pool->HelpUntil(mu, cv, [&]() {
          merge_ready();
          return next_merge + 1 == tasks.size();
        });
        {
          std::unique_lock<std::mutex> drain_lock(mu);
          ++in_flight;               // balance the merge-time decrement
          tasks.back().done = true;  // never submitted; merge it empty
          merge_ready();
        }
        return pass1_error;
      }
      ++in_flight;
    }
    pool->Submit([task, &mine_partition, &mu, &cv]() {
      mine_partition(task);
      // Notify while holding the lock: the waiter must reacquire `mu` to
      // observe `done` and return, which keeps `cv` alive until this
      // notify_all has completed (it is destroyed at function exit).
      std::lock_guard<std::mutex> lock(mu);
      task->done = true;
      cv.notify_all();
    });
    return Status::OK();
  };

  const auto spill_pass1_start = std::chrono::steady_clock::now();
  ItemId num_items = 0;
  Status spill_status;
  {
    PhaseScope phase(&registry, "partition.spill");
    spill_status = io::StreamTransactionFile(
        path, &num_items,
        [&](std::vector<ItemId> basket) -> Status {
          for (const ItemId item : basket) {
            if (item >= rows_by_item.size()) {
              rows_by_item.resize(static_cast<size_t>(item) + 1);
            }
            rows_by_item[item].push_back(static_cast<uint32_t>(local_rows));
          }
          local_bytes += basket.size() * sizeof(uint32_t);
          ++local_rows;
          ++total_rows;
          return local_bytes >= partition_row_bytes ? close_partition()
                                                    : Status::OK();
        },
        &bytes_consumed);
    if (spill_status.ok()) spill_status = close_partition();
  }
  // Pass-boundary peak-RSS samples (here and after each pass below): the
  // budget gate in bench_outofcore cares *when* the high-water mark
  // happened, not just its final value. Under the pipeline the spill
  // sample is taken when the stream ends (pass-1 tasks may still run).
  registry.GetGauge("mem.peak_rss_spill_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));

  // Every in-flight mine references the locals above, so drain BEFORE any
  // error return — a corrupt stream tail or failed shard write must not
  // leave workers running over destroyed state (the guard then removes
  // whatever was spilled).
  drain_pass1();
  if (!spill_status.ok()) return spill_status;
  if (total_rows == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }
  if (!pass1_error.ok()) return pass1_error;
  const double spill_pass1_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    spill_pass1_start)
          .count();
  registry.GetGauge("mem.peak_rss_pass1_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));

  // --- Pass 2: count the whole candidate union against every partition
  // with exact global counts into the memo. Partitions count concurrently
  // (admitted-many chunks, one shard mapped per running chunk); each slot
  // accumulates into its own partial array and the slot arrays reduce in
  // slot order afterwards — exact uint64 sums, so the totals are
  // identical for any schedule. Sorted candidate order makes the memo
  // content independent of hash order.
  std::vector<Itemset> candidates(recorded_union.begin(),
                                  recorded_union.end());
  recorded_union = {};
  std::sort(candidates.begin(), candidates.end(),
            [](const Itemset& a, const Itemset& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  std::vector<uint64_t> totals(candidates.size(), 0);
  const auto pass2_start = std::chrono::steady_clock::now();
  {
    PhaseScope phase(&registry, "partition.pass2");
    const size_t num_parts = part_paths.size();
    const size_t grain = (num_parts + admitted - 1) / admitted;
    const size_t slot_bound = ParallelForSlotBound(pool, num_parts, grain);
    std::vector<std::vector<uint64_t>> slot_totals(
        slot_bound, std::vector<uint64_t>(candidates.size(), 0));
    std::vector<std::vector<uint64_t>> slot_partial(
        slot_bound, std::vector<uint64_t>(candidates.size(), 0));
    CORRMINE_RETURN_NOT_OK(ParallelForSlots(
        pool, num_parts, grain,
        [&](size_t slot, size_t begin, size_t end) -> Status {
          for (size_t p = begin; p < end; ++p) {
            PhaseScope phase(&registry, "outofcore.count_partition", -1,
                             static_cast<int>(p),
                             static_cast<int>(candidates.size()));
            CORRMINE_ASSIGN_OR_RETURN(
                std::unique_ptr<io::MappedColumnShard> shard,
                io::MappedColumnShard::Open(part_paths[p]));
            CompressedCountProvider provider(
                std::vector<const ColumnSource*>{shard.get()});
            provider.CountAllPresentBatchUncounted(candidates,
                                                   slot_partial[slot], pool);
            std::vector<uint64_t>& acc = slot_totals[slot];
            for (size_t i = 0; i < acc.size(); ++i) {
              acc[i] += slot_partial[slot][i];
            }
          }
          return Status::OK();
        }));
    for (const std::vector<uint64_t>& acc : slot_totals) {
      for (size_t i = 0; i < totals.size(); ++i) totals[i] += acc[i];
    }
  }
  const double pass2_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pass2_start)
          .count();
  registry.GetGauge("mem.peak_rss_pass2_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
  std::unordered_map<Itemset, uint64_t, ItemsetHasher> memo;
  memo.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    memo.emplace(candidates[i], totals[i]);
  }

  // --- Final: the real walk, over memoized exact counts with a streaming
  // fallback, under the caller's unmodified mining options.
  PartitionStreamCountProvider fallback(&part_paths, total_rows);
  MemoCountProvider memo_provider(&memo, fallback);
  StatusOr<MiningResult> result = MineCorrelations(memo_provider, num_items,
                                                   base);

  registry.GetCounter("outofcore.partitions")->Add(part_paths.size());
  registry.GetCounter("outofcore.candidate_queries")->Add(candidates.size());
  registry.GetCounter("outofcore.memo_misses")
      ->Add(memo_provider.memo_misses());
  registry.GetGauge("mem.spilled_payload_bytes")
      ->Set(static_cast<int64_t>(spilled_raw));
  registry.GetGauge("column.spill_bytes")
      ->Set(static_cast<int64_t>(spilled_encoded));
  registry.GetGauge("column.spill_raw_bytes")
      ->Set(static_cast<int64_t>(spilled_raw));
  registry.GetGauge("column.spill_ratio_x1000")
      ->Set(spilled_raw == 0
                ? int64_t{1000}
                : static_cast<int64_t>(spilled_encoded * 1000 /
                                       spilled_raw));
  if (stats != nullptr) {
    stats->num_baskets = total_rows;
    stats->num_items = num_items;
    stats->partitions = part_paths.size();
    stats->spilled_payload_bytes = spilled_raw;
    stats->spilled_encoded_bytes = spilled_encoded;
    stats->admitted = static_cast<int>(admitted);
    stats->spill_pass1_seconds = spill_pass1_seconds;
    stats->pass2_seconds = pass2_seconds;
    stats->candidate_queries = candidates.size();
    stats->memo_hits = memo_provider.memo_hits();
    stats->memo_misses = memo_provider.memo_misses();
  }

  const uint64_t peak = PeakRssBytes();
  if (result.ok() && peak > peak_on_entry &&
      peak > options.memory_budget_bytes +
                 options.memory_budget_bytes / 10) {
    CORRMINE_LOG(kWarning) << "out-of-core peak RSS " << peak
                           << " exceeded memory budget "
                           << options.memory_budget_bytes << " by more than 10%";
  }
  return result;
}

}  // namespace corrmine
