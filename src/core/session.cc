#include "core/session.h"

#include <utility>

#include "common/metrics.h"
#include "common/phase_scope.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "io/transaction_io.h"

namespace corrmine {

MiningSession::MiningSession(MiningSession&&) noexcept = default;
MiningSession& MiningSession::operator=(MiningSession&&) noexcept = default;
MiningSession::~MiningSession() = default;

MiningSession::MiningSession(TransactionDatabase db,
                             const SessionOptions& options,
                             std::unique_ptr<ThreadPool> pool)
    : db_(std::make_unique<TransactionDatabase>(std::move(db))),
      provider_kind_(options.provider),
      pool_(std::move(pool)),
      threads_(ThreadPool::ResolveThreadCount(options.num_threads)),
      metrics_(options.metrics) {
  {
    PhaseScope phase(&metrics(), "itemset.index_build", -1, -1,
                     static_cast<int64_t>(db_->num_baskets()));
    switch (provider_kind_) {
      case SessionProvider::kBitmap:
        bitmap_provider_ =
            std::make_unique<BitmapCountProvider>(*db_, pool_.get());
        provider_ = bitmap_provider_.get();
        break;
      case SessionProvider::kCompressed:
        compressed_provider_ =
            std::make_unique<CompressedCountProvider>(*db_);
        provider_ = compressed_provider_.get();
        break;
      case SessionProvider::kScan:
        scan_provider_ = std::make_unique<ScanCountProvider>(*db_);
        provider_ = scan_provider_.get();
        break;
    }
  }
  metrics().GetGauge("mem.peak_rss_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
}

StatusOr<std::unique_ptr<ThreadPool>> MiningSession::MakePool(
    const SessionOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  if (threads == 1) return std::unique_ptr<ThreadPool>();
  return std::make_unique<ThreadPool>(threads - 1);
}

StatusOr<MiningSession> MiningSession::Open(const std::string& path,
                                            const SessionOptions& options) {
  // The pool exists before the file is read: the load and the index build
  // both run on it.
  CORRMINE_ASSIGN_OR_RETURN(std::unique_ptr<ThreadPool> pool,
                            MakePool(options));
  CORRMINE_ASSIGN_OR_RETURN(
      TransactionDatabase db,
      options.named_items
          ? io::LoadNamedTransactionFile(path)
          : io::LoadTransactionFile(path, options.num_items_hint, pool.get()));
  return MiningSession(std::move(db), options, std::move(pool));
}

StatusOr<MiningSession> MiningSession::FromDatabase(
    TransactionDatabase db, const SessionOptions& options) {
  CORRMINE_ASSIGN_OR_RETURN(std::unique_ptr<ThreadPool> pool,
                            MakePool(options));
  return MiningSession(std::move(db), options, std::move(pool));
}

MetricsRegistry& MiningSession::metrics() const {
  return metrics_ != nullptr ? *metrics_ : MetricsRegistry::Global();
}

// Memory bookkeeping shared by every Mine* entry point: refreshed after each
// run so a stats dump taken at any point reflects the high-water marks.
void MiningSession::PublishMemoryGauges() const {
  MetricsRegistry& registry = metrics();
  registry.GetGauge("mem.peak_rss_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
  registry.GetGauge("mem.rows_bytes")
      ->Set(static_cast<int64_t>(db_->RowStoreBytes()));
  if (bitmap_provider_ != nullptr) {
    registry.GetGauge("mem.index_bytes")
        ->Set(static_cast<int64_t>(bitmap_provider_->IndexMemoryBytes()));
  }
  if (compressed_provider_ != nullptr) {
    registry.GetGauge("mem.index_bytes")
        ->Set(static_cast<int64_t>(compressed_provider_->IndexMemoryBytes()));
    const ColumnStorageStats storage = compressed_provider_->StorageStats();
    registry.GetGauge("column.array_containers")
        ->Set(static_cast<int64_t>(storage.array_containers));
    registry.GetGauge("column.dense_containers")
        ->Set(static_cast<int64_t>(storage.dense_containers));
    registry.GetGauge("column.run_containers")
        ->Set(static_cast<int64_t>(storage.run_containers));
    registry.GetGauge("column.payload_bytes")
        ->Set(static_cast<int64_t>(storage.payload_bytes));
  }
}

Status MiningSession::AppendBatch(const TransactionDatabase& chunk) {
  PhaseScope phase(&metrics(), "session.append", -1,
                   static_cast<int64_t>(chunk.num_baskets()),
                   static_cast<int64_t>(chunk.num_items()));
  if (chunk.num_items() > db_->num_items()) {
    CORRMINE_RETURN_NOT_OK(db_->GrowItemSpace(chunk.num_items()));
  }
  for (size_t row = 0; row < chunk.num_baskets(); ++row) {
    CORRMINE_RETURN_NOT_OK(db_->AddBasket(chunk.basket(row)));
  }
  if (bitmap_provider_ != nullptr) bitmap_provider_->AppendFrom(*db_);
  if (compressed_provider_ != nullptr) compressed_provider_->AppendFrom(*db_);
  // The scan provider reads *db_ live — nothing to catch up.
  PublishMemoryGauges();
  return Status::OK();
}

StatusOr<MiningResult> MiningSession::Mine(MinerOptions options) const {
  PhaseScope phase(&metrics(), "session.mine", -1, -1,
                   static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  if (options.metrics == nullptr) options.metrics = metrics_;
  auto result = MineCorrelations(provider(), db_->num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<MiningResult> MiningSession::MineRandomWalk(
    RandomWalkOptions options) const {
  PhaseScope phase(&metrics(), "session.mine_random_walk", -1, -1,
                   static_cast<int64_t>(threads_));
  options.miner.num_threads = threads_;
  options.miner.pool = pool_.get();
  if (options.miner.metrics == nullptr) options.miner.metrics = metrics_;
  auto result = MineCorrelationsRandomWalk(provider(), db_->num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<std::vector<FrequentItemset>> MiningSession::MineFrequent(
    AprioriOptions options) const {
  PhaseScope phase(&metrics(), "session.mine_frequent", -1, -1,
                   static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  auto result = MineFrequentItemsets(provider(), db_->num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<std::vector<FrequentItemset>> MiningSession::MineFrequentEclat(
    EclatOptions options) const {
  PhaseScope phase(&metrics(), "session.mine_frequent_eclat", -1, -1,
                   static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  auto result = MineFrequentItemsetsEclat(*db_, options);
  PublishMemoryGauges();
  return result;
}

}  // namespace corrmine
