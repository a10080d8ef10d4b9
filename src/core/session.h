#ifndef CORRMINE_CORE_SESSION_H_
#define CORRMINE_CORE_SESSION_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status_or.h"
#include "core/chi_squared_miner.h"
#include "core/random_walk_miner.h"
#include "io/transaction_io.h"
#include "itemset/count_provider.h"
#include "itemset/counting_column.h"
#include "mining/apriori.h"
#include "mining/eclat.h"

namespace corrmine {

class ThreadPool;

/// Counting strategy a MiningSession builds (CLI `--provider`). All three
/// satisfy the same CountProvider contract with batch overrides, so mined
/// answers are byte-identical across strategies; only cost, memory, and
/// which kernel counters tick differ.
enum class SessionProvider {
  /// Uncompressed per-item bitmaps (BitmapCountProvider) — the default:
  /// fastest on dense row spaces, O(items x rows / 8) memory.
  kBitmap = 0,
  /// Hybrid counting columns (CompressedCountProvider) — adaptive
  /// array/dense/run containers, memory tracks occupancy instead of the
  /// rectangle, and the same storage the out-of-core partition files hold.
  kCompressed = 1,
  /// No index at all (ScanCountProvider) — re-scans the row store per
  /// batch; the paper's full-pass baseline cost model.
  kScan = 2,
};

/// Knobs a MiningSession resolves once, up front, instead of every caller
/// re-deriving them per run.
struct SessionOptions {
  /// Worker threads for every parallel region (1 = sequential, 0 = one per
  /// hardware thread). The session owns one pool for its lifetime and lends
  /// it to each run, so repeated runs don't pay thread spawn/join.
  int num_threads = 1;

  /// Counting strategy to build.
  SessionProvider provider = SessionProvider::kBitmap;

  /// Text inputs hold word tokens, not integer ids (Open only).
  bool named_items = false;

  /// Floors the item space when loading text files (Open only); the CMB1
  /// binary header is authoritative for its own item space.
  ItemId num_items_hint = 0;

  /// Registry for the runs' counters and phase timers; nullptr means
  /// MetricsRegistry::Global().
  MetricsRegistry* metrics = nullptr;
};

/// One place that owns everything a mining run needs — the row store, one
/// counting provider built over it, the thread pool, and the metrics
/// registry (DESIGN.md §7) — so front ends (the CLI, tests, benchmarks) stop
/// hand-assembling provider/pool/option plumbing. Construction resolves the
/// 0-means-auto conventions once; every Mine* method lends the session's
/// pool to the run and wires the resolved thread count through, so results
/// are identical to standalone calls with the same settings.
class MiningSession {
 public:
  /// Loads `path` (auto-detected CMB1 binary or text, io/format_detect.h).
  /// Named-item text inputs are parsed through the dictionary.
  static StatusOr<MiningSession> Open(const std::string& path,
                                      const SessionOptions& options = {});

  /// Adopts an already-built database (moved in; pass a copy to keep one).
  static StatusOr<MiningSession> FromDatabase(TransactionDatabase db,
                                              const SessionOptions& options = {});

  // Out-of-line so unique_ptr<ThreadPool> can destroy a complete type.
  MiningSession(MiningSession&&) noexcept;
  MiningSession& operator=(MiningSession&&) noexcept;
  ~MiningSession();

  /// Level-wise chi-squared mining (Figure 1) over the session's provider.
  /// The session fills in num_threads/pool/metrics; all other fields of
  /// `options` are the caller's.
  StatusOr<MiningResult> Mine(MinerOptions options = {}) const;

  /// Delta ingestion: appends `chunk`'s baskets in order, growing the item
  /// space to cover chunk.num_items() when the delta introduces new items.
  /// The provider's index is caught up in place — no rebuild. After the
  /// call every count is exactly what a fresh session over base+delta would
  /// produce. Must not race with Mine* calls.
  Status AppendBatch(const TransactionDatabase& chunk);

  /// The random-walk border sampler, same wiring as Mine.
  StatusOr<MiningResult> MineRandomWalk(RandomWalkOptions options = {}) const;

  /// Apriori frequent-itemset mining over the session's provider (one
  /// CountAllPresentBatch per level).
  StatusOr<std::vector<FrequentItemset>> MineFrequent(
      AprioriOptions options = {}) const;

  /// Eclat over the session's database.
  StatusOr<std::vector<FrequentItemset>> MineFrequentEclat(
      EclatOptions options = {}) const;

  const TransactionDatabase& database() const { return *db_; }
  /// The counting strategy every Mine* call uses.
  const CountProvider& provider() const { return *provider_; }
  /// The strategy this session was built with.
  SessionProvider provider_kind() const { return provider_kind_; }

  /// Resolved thread count (the 0-means-auto convention already applied).
  int num_threads() const { return threads_; }
  /// The session's lending pool; nullptr when running sequentially.
  ThreadPool* pool() const { return pool_.get(); }
  MetricsRegistry& metrics() const;

  ItemId num_items() const { return db_->num_items(); }
  uint64_t num_baskets() const { return db_->num_baskets(); }
  const ItemDictionary& dictionary() const { return db_->dictionary(); }

 private:
  MiningSession(TransactionDatabase db, const SessionOptions& options);

  /// Refreshes the "mem.*" gauges (peak RSS, index bytes) in the session's
  /// registry; called after every Mine* run.
  void PublishMemoryGauges() const;

  // Heap-held so the row store never moves: the scan provider reads it
  // through a reference that must survive moves of the session.
  std::unique_ptr<TransactionDatabase> db_;
  // Exactly one strategy member is built (provider_kind_); provider_ points
  // at it.
  std::unique_ptr<BitmapCountProvider> bitmap_provider_;
  std::unique_ptr<CompressedCountProvider> compressed_provider_;
  std::unique_ptr<ScanCountProvider> scan_provider_;
  const CountProvider* provider_ = nullptr;
  SessionProvider provider_kind_ = SessionProvider::kBitmap;
  std::unique_ptr<ThreadPool> pool_;
  int threads_ = 1;
  MetricsRegistry* metrics_ = nullptr;

  // Benchmark compat block: perfbench/harness.cc is the only caller of the
  // three names below; the block goes at the next benchmark revision.
 public:
  static StatusOr<MiningSession> FromShardedDatabase(
      TransactionDatabase db, const SessionOptions& options) {
    return FromDatabase(std::move(db), options);
  }
};
using ShardedTransactionDatabase = TransactionDatabase;
namespace io {
inline StatusOr<TransactionDatabase> LoadTransactionFileSharded(
    const std::string& path, size_t num_shards) {
  if (num_shards == 1) return LoadTransactionFile(path);
  return Status::InvalidArgument("num_shards must be 1: sharding was removed");
}
}  // namespace io  (end of the benchmark compat block)

}  // namespace corrmine

#endif  // CORRMINE_CORE_SESSION_H_
