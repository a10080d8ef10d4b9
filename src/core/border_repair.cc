#include "core/border_repair.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/phase_scope.h"

namespace corrmine {

namespace {

/// True when every item of `s` fits the chunk's (possibly narrower) item
/// space. Queries about items the chunk never saw have count 0 over it.
bool WithinItemSpace(const Itemset& s, ItemId num_items) {
  return s.item(s.size() - 1) < num_items;
}

Status ValidateStateAgainstSession(const BorderState& state,
                                   const MiningSession& session) {
  if (state.num_baskets != session.num_baskets()) {
    return Status::FailedPrecondition(
        "border state covers " + std::to_string(state.num_baskets) +
        " baskets but the session has " +
        std::to_string(session.num_baskets()) +
        " — apply the delta to both sides before repairing");
  }
  if (state.num_items != session.num_items()) {
    return Status::FailedPrecondition(
        "border state item space " + std::to_string(state.num_items) +
        " != session item space " + std::to_string(session.num_items()));
  }
  if (state.item_names != session.dictionary().names()) {
    return Status::InvalidArgument(
        "border state dictionary does not match the session's (" +
        std::to_string(state.item_names.size()) + " vs " +
        std::to_string(session.dictionary().names().size()) +
        " names) — the snapshot belongs to a different dataset");
  }
  return Status::OK();
}

}  // namespace

MemoCountProvider::MemoCountProvider(
    std::unordered_map<Itemset, uint64_t, ItemsetHasher>* memo,
    const CountProvider& fallback)
    : memo_(memo), fallback_(fallback) {}

uint64_t MemoCountProvider::CountAllPresentImpl(const Itemset& s) const {
  auto it = memo_->find(s);
  if (it != memo_->end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  uint64_t count = 0;
  fallback_.CountAllPresentBatchUncounted({&s, 1}, {&count, 1});
  memo_->emplace(s, count);
  return count;
}

void MemoCountProvider::CountAllPresentBatchImpl(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  // Split the level's batch into memo hits and misses; only the misses —
  // queries from lattice regions no previous walk explored — reach the
  // fallback, in a single uncounted batch so its blocked executor still
  // sees the whole stream at once.
  std::vector<size_t> miss_index;
  std::vector<Itemset> miss_queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto it = memo_->find(queries[i]);
    if (it != memo_->end()) {
      counts[i] = it->second;
    } else {
      miss_index.push_back(i);
      miss_queries.push_back(queries[i]);
    }
  }
  hits_ += queries.size() - miss_queries.size();
  misses_ += miss_queries.size();
  if (!miss_queries.empty()) {
    std::vector<uint64_t> miss_counts(miss_queries.size(), 0);
    fallback_.CountAllPresentBatchUncounted(miss_queries, miss_counts, pool);
    for (size_t j = 0; j < miss_queries.size(); ++j) {
      counts[miss_index[j]] = miss_counts[j];
      memo_->emplace(std::move(miss_queries[j]), miss_counts[j]);
    }
  }
}

Status ApplyAppendedChunk(BorderState* state,
                          const TransactionDatabase& chunk) {
  PhaseScope phase(&MetricsRegistry::Global(), "repair.apply_append", -1,
                   static_cast<int64_t>(chunk.num_baskets()),
                   static_cast<int64_t>(state->counts.size()));
  // One small vertical index over just the delta rows answers every
  // memoized query; counts are exact integers, so adding the per-chunk
  // count is exactly re-counting over base+delta.
  VerticalIndex delta(chunk);
  for (auto& [query, count] : state->counts) {
    if (WithinItemSpace(query, chunk.num_items())) {
      count += delta.CountAllPresent(query);
    }
  }
  state->num_baskets += chunk.num_baskets();
  state->num_items = std::max(state->num_items, chunk.num_items());
  MetricsRegistry::Global()
      .GetCounter("repair.delta_rows")
      ->Add(chunk.num_baskets());
  return Status::OK();
}

Status ApplyRetiredChunk(BorderState* state,
                         const TransactionDatabase& chunk) {
  PhaseScope phase(&MetricsRegistry::Global(), "repair.apply_retire", -1,
                   static_cast<int64_t>(chunk.num_baskets()),
                   static_cast<int64_t>(state->counts.size()));
  if (chunk.num_baskets() > state->num_baskets) {
    return Status::InvalidArgument(
        "retired chunk has more baskets than the snapshot covers");
  }
  VerticalIndex delta(chunk);
  for (auto& [query, count] : state->counts) {
    if (!WithinItemSpace(query, chunk.num_items())) continue;
    const uint64_t removed = delta.CountAllPresent(query);
    if (removed > count) {
      return Status::InvalidArgument(
          "retired chunk was never part of the snapshot: count underflow "
          "for " +
          query.ToString());
    }
    count -= removed;
  }
  state->num_baskets -= chunk.num_baskets();
  MetricsRegistry::Global()
      .GetCounter("repair.delta_rows")
      ->Add(chunk.num_baskets());
  return Status::OK();
}

StatusOr<MiningResult> RepairBorder(const MiningSession& session,
                                    BorderState* state) {
  CORRMINE_RETURN_NOT_OK(ValidateStateAgainstSession(*state, session));
  PhaseScope phase(&session.metrics(), "repair.mine", -1,
                   static_cast<int64_t>(state->num_baskets),
                   static_cast<int64_t>(state->counts.size()));
  MinerOptions options = state->config.ToMinerOptions();
  options.num_threads = session.num_threads();
  options.pool = session.pool();
  options.metrics = &session.metrics();
  MemoCountProvider memo_provider(&state->counts, session.provider());
  CORRMINE_ASSIGN_OR_RETURN(
      MiningResult result,
      MineCorrelations(memo_provider, session.num_items(), options));
  MetricsRegistry::Global()
      .GetCounter("repair.memo_hits")
      ->Add(memo_provider.memo_hits());
  MetricsRegistry::Global()
      .GetCounter("repair.memo_misses")
      ->Add(memo_provider.memo_misses());
  state->result = result;
  return result;
}

StatusOr<IncrementalMiner> IncrementalMiner::Create(
    TransactionDatabase base, const SessionOptions& session_options,
    const MinerOptions& miner_options) {
  IncrementalMiner miner(session_options,
                         BorderMinerConfig::FromMinerOptions(miner_options));
  CORRMINE_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::FromDatabase(base, session_options));
  miner.state_.num_items = session.num_items();
  miner.state_.num_baskets = session.num_baskets();
  miner.state_.item_names = session.dictionary().names();
  miner.session_.emplace(std::move(session));
  miner.chunks_.push_back(std::move(base));
  return miner;
}

Status IncrementalMiner::Append(const TransactionDatabase& chunk) {
  CORRMINE_RETURN_NOT_OK(session_->AppendBatch(chunk));
  CORRMINE_RETURN_NOT_OK(ApplyAppendedChunk(&state_, chunk));
  chunks_.push_back(chunk);
  return Status::OK();
}

Status IncrementalMiner::RetireOldest() {
  if (chunks_.size() <= 1) {
    return Status::InvalidArgument(
        "cannot retire the last chunk: an empty window has nothing to mine");
  }
  TransactionDatabase retired = std::move(chunks_.front());
  chunks_.pop_front();
  CORRMINE_RETURN_NOT_OK(ApplyRetiredChunk(&state_, retired));
  // Rebuild the session over the surviving window. The item space stays
  // monotone (state_.num_items), so memo entries and snapshots never dangle.
  TransactionDatabase db(state_.num_items);
  db.dictionary() = session_->dictionary();
  for (const TransactionDatabase& chunk : chunks_) {
    for (size_t row = 0; row < chunk.num_baskets(); ++row) {
      CORRMINE_RETURN_NOT_OK(db.AddBasket(chunk.basket(row)));
    }
  }
  CORRMINE_ASSIGN_OR_RETURN(
      MiningSession fresh,
      MiningSession::FromDatabase(std::move(db), session_options_));
  session_.emplace(std::move(fresh));
  return Status::OK();
}

StatusOr<MiningResult> IncrementalMiner::Repair() {
  return RepairBorder(*session_, &state_);
}

}  // namespace corrmine
