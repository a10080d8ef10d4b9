#ifndef CORRMINE_MINING_PARTITION_H_
#define CORRMINE_MINING_PARTITION_H_

#include <cstdint>
#include <string>

#include "common/status_or.h"
#include "core/chi_squared_miner.h"
#include "itemset/transaction_database.h"

namespace corrmine {

/// Options of the out-of-core correlation miner (DESIGN.md §12).
struct OutOfCoreMinerOptions {
  /// The mining configuration the final walk runs under — the result is
  /// byte-identical to MineCorrelations(in-memory provider, miner) on any
  /// size where both run.
  MinerOptions miner;

  /// Target resident-set budget. Partitions are sized so the spill pass,
  /// the per-partition mines, and the streaming count pass each stay well
  /// inside it; enforced observationally against mem.peak_rss_bytes
  /// (benchgate: peak <= 1.1x budget).
  uint64_t memory_budget_bytes = uint64_t{256} << 20;

  /// Bytes of basket rows buffered before a partition closes (--partition
  /// -budget). 0 derives memory_budget_bytes / 6 floored at 1 MiB — the
  /// close-time transient briefly holds row vectors, built columns and the
  /// serialized file (~3x the row bytes), and the admission controller
  /// needs headroom to overlap partitions. Explicit values are taken
  /// verbatim (no floor, so tests can force many tiny partitions) but must
  /// not exceed memory_budget_bytes; setting it equal to the memory budget
  /// forces admitted = 1, i.e. serial partition mining.
  uint64_t partition_budget_bytes = 0;

  /// Directory for the CCS partition shard files (created if missing).
  /// Empty derives "<input>.spill" next to the input file.
  std::string spill_dir;

  /// Leave the partition files on disk for inspection.
  bool keep_spill = false;
};

/// Accounting of one out-of-core run (also published as "outofcore.*"
/// counters and the mem.memory_budget_bytes gauge).
struct OutOfCoreStats {
  uint64_t num_baskets = 0;
  ItemId num_items = 0;
  /// RAM-sized CCS partitions spilled (and mined) in pass one.
  uint64_t partitions = 0;
  /// Raw (encoding-0 equivalent) payload bytes across partitions — what an
  /// uncompressed spill of the same columns would cost.
  uint64_t spilled_payload_bytes = 0;
  /// Encoded payload bytes actually written (min-byte rule); the
  /// column.spill_ratio_x1000 gauge is encoded/raw.
  uint64_t spilled_encoded_bytes = 0;
  /// Concurrent partitions the admission controller allowed in pass 1/2
  /// (1 = serial, the degraded mode).
  int admitted = 1;
  /// Wall seconds of the overlapped spill+pass-1 window and of pass 2.
  double spill_pass1_seconds = 0.0;
  double pass2_seconds = 0.0;
  /// Distinct count queries the partition mines touched (the memo
  /// warm-up verified in the streaming pass).
  uint64_t candidate_queries = 0;
  /// Memo traffic of the final walk: misses are the queries that cost an
  /// extra streaming pass batch.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
};

/// Two-pass partition correlation mining over a dataset that need not fit
/// in memory (SON-style, composed with the border machinery):
///
///   spill   — stream `path` once, building hybrid counting columns for
///             RAM-sized horizontal partitions and writing each as an
///             mmap-backed CCS shard file;
///   pass 1  — pipelined with the spill: as each shard file closes, its
///             partition mine (at proportionally scaled support,
///             recording every count query the level-wise walk issues) is
///             submitted to the scheduler, overlapping mining with spill
///             I/O. An admission controller caps concurrent partitions so
///             admitted x partition budget stays inside the memory
///             budget; recordings merge in partition order, so the
///             candidate union is identical for any thread count;
///   pass 2  — count the partitions (admitted-many concurrently, per-slot
///             partial arrays reduced deterministically), answering the
///             whole candidate union with exact global counts into a
///             memo;
///   final   — re-walk MineCorrelations over a MemoCountProvider whose
///             fallback batch-counts against the mapped partitions, so
///             even queries the warm-up missed are answered exactly.
///
/// The final walk sees exact counts for every query, so rules, level
/// stats and the frontier are byte-identical to the in-memory miner by
/// construction. At admitted = 1 partitions are mapped, counted and
/// unmapped strictly one at a time — the high-water mark stays near base
/// + one partition; wider admission trades bounded extra residency for
/// pass-1/pass-2 parallelism. On error, spill files are removed unless
/// keep_spill is set — failed runs leave the spill dir empty.
StatusOr<MiningResult> MineCorrelationsOutOfCore(
    const std::string& path, const OutOfCoreMinerOptions& options,
    OutOfCoreStats* stats = nullptr);

}  // namespace corrmine

#endif  // CORRMINE_MINING_PARTITION_H_
