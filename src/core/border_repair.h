#ifndef CORRMINE_CORE_BORDER_REPAIR_H_
#define CORRMINE_CORE_BORDER_REPAIR_H_

#include <deque>
#include <optional>
#include <unordered_map>

#include "common/status_or.h"
#include "core/border_state.h"
#include "core/session.h"
#include "itemset/count_provider.h"

namespace corrmine {

/// Count provider backed by a BorderState's memo with a real provider as
/// fallback — the engine of border repair. Batch queries split into memo
/// hits (answered in O(1), no database touch) and misses, which fall
/// through to the fallback's *uncounted* batch entry point in one call and
/// are memoized for the next repair. The public wrapper counters
/// ("count_provider.*") therefore tick exactly as they would on a
/// from-scratch mine with the same query stream — the statsdiff contract.
///
/// Exactness: the memo must hold counts over the same rows as `fallback`
/// (RepairBorder validates num_baskets before constructing one); under
/// that precondition every answer is byte-identical to the fallback's.
///
/// Not thread-safe: the miner issues one batch per level from its
/// coordinating thread, and only the fallback parallelizes internally.
class MemoCountProvider : public CountProvider {
 public:
  /// Both pointers/references are borrowed; `memo` is mutated (misses are
  /// inserted) and must outlive the provider.
  MemoCountProvider(std::unordered_map<Itemset, uint64_t, ItemsetHasher>* memo,
                    const CountProvider& fallback);

  uint64_t num_baskets() const override { return fallback_.num_baskets(); }

  /// Memo traffic of this provider's lifetime (also published as the
  /// "repair.memo_hits"/"repair.memo_misses" counters): misses are the
  /// queries that actually cost a database pass.
  uint64_t memo_hits() const { return hits_; }
  uint64_t memo_misses() const { return misses_; }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override;
  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override;

 private:
  std::unordered_map<Itemset, uint64_t, ItemsetHasher>* memo_;
  const CountProvider& fallback_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
};

/// Folds an appended delta chunk into the snapshot: every memoized count
/// gains that query's count over the chunk alone (one small vertical index
/// over |delta| rows answers them all), num_baskets grows by the chunk's
/// rows, and the item space widens if the chunk introduced new items.
/// O(memo size x chunk words) — independent of the base dataset size.
Status ApplyAppendedChunk(BorderState* state,
                          const TransactionDatabase& chunk);

/// Reverse of ApplyAppendedChunk for sliding-window retirement: subtracts
/// the retired chunk's per-query counts and shrinks num_baskets. The item
/// space stays monotone (ids are never re-compacted). Errors if a count or
/// the basket total would underflow — the symptom of retiring a chunk that
/// was never part of the snapshot.
Status ApplyRetiredChunk(BorderState* state, const TransactionDatabase& chunk);

/// Border repair: re-establishes `state` as the exact mining result for
/// the session's current database. The lattice walk re-runs under the
/// snapshot's stored configuration, but through a MemoCountProvider — so
/// counting touches the database only for queries whose verdicts-changed
/// neighborhoods the previous walks never explored, and the answer is
/// byte-identical to MineCorrelations from scratch (rules, level stats,
/// frontier — the differential-suite contract). On success the snapshot's
/// border, stats, and memo are updated in place, and the result is also
/// returned. The first call on a fresh (empty-memo) state doubles as the
/// initial full mine.
///
/// Preconditions (validated, returning Status on mismatch): the session's
/// num_baskets and num_items equal the snapshot's — i.e. every delta was
/// applied to both sides — and the dictionaries agree.
StatusOr<MiningResult> RepairBorder(const MiningSession& session,
                                    BorderState* state);

/// Owns the full incremental-mining loop: a window of chunks (chunk 0 is
/// the base dataset), the live MiningSession over their concatenation, and
/// the BorderState being repaired. Append pushes a tail chunk into the
/// session's index in place; RetireOldest pops the head chunk and
/// rebuilds the session over the surviving window.
/// Repair() after any sequence of the two returns the exact mining result
/// for the current window.
class IncrementalMiner {
 public:
  static StatusOr<IncrementalMiner> Create(TransactionDatabase base,
                                           const SessionOptions& session_options,
                                           const MinerOptions& miner_options);

  /// Appends a delta chunk (sliding-window tail). The chunk's item space
  /// may exceed the current one — the window grows to cover it.
  Status Append(const TransactionDatabase& chunk);

  /// Retires the oldest chunk. Errors when only one chunk remains (an
  /// empty window has no marginals to mine).
  Status RetireOldest();

  /// Repairs the border against the current window; see RepairBorder.
  StatusOr<MiningResult> Repair();

  const MiningSession& session() const { return *session_; }
  const BorderState& state() const { return state_; }
  BorderState* mutable_state() { return &state_; }
  size_t num_chunks() const { return chunks_.size(); }

 private:
  IncrementalMiner(const SessionOptions& session_options,
                   const BorderMinerConfig& config)
      : session_options_(session_options) {
    state_.config = config;
  }

  std::deque<TransactionDatabase> chunks_;
  SessionOptions session_options_;
  std::optional<MiningSession> session_;
  BorderState state_;
};

}  // namespace corrmine

#endif  // CORRMINE_CORE_BORDER_REPAIR_H_
