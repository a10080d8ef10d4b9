// Border repair vs. full re-mine on small deltas (DESIGN.md §11). The
// workload models the incremental-mining loop: a base dataset already
// mined (border snapshot + count memo in hand), then a delta batch of
// fresh baskets arrives. The "repair" side does what the live
// IncrementalMiner does — push the delta into the session's bitmaps in
// place, fold it into the memo (ApplyAppendedChunk, O(memo x delta)), and
// re-walk the lattice through the MemoCountProvider, so only
// never-before-seen queries touch the database. The "full" side does what
// a process that kept no state must do: rebuild the mining session over
// the combined window (row store + vertical index) and mine it from
// scratch. Assembling the combined row store happens outside both timers —
// neither side is billed for data the scenario hands them.
//
// Emits one "BENCH_JSON" line (the BENCH_incremental.json seed) consumed
// by tools/benchgate, which enforces the repair-speedup floor at <= 1%
// deltas, scaled to the machine's usable cores. The harness CHECK-fails if
// any repair result differs from the from-scratch bytes — the differential
// contract is part of the bench, not just the test suite.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/border_repair.h"
#include "core/border_state.h"
#include "core/chi_squared_miner.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/table_printer.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TransactionDatabase Quest(uint64_t seed, uint64_t baskets) {
  // Deep and narrow on purpose: repair's advantage is skipped *counting*,
  // so the workload must be count-bound. Row count is the lever — counting
  // scales with words per bitmap while the per-level plan/generate/eval
  // costs (paid identically by both sides) scale with the candidate count,
  // which the modest item space keeps small.
  datagen::QuestOptions quest;
  quest.num_transactions = baskets;
  quest.num_items = 60;
  quest.avg_transaction_size = 10.0;
  quest.num_patterns = 15;
  quest.seed = seed;
  auto db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(db.ok()) << db.status().ToString();
  return std::move(*db);
}

MinerOptions BenchMinerOptions(uint64_t num_baskets) {
  MinerOptions options;
  // Support floor proportional to the dataset so the lattice shape (and
  // with it the candidate count) stays comparable across sizes.
  options.support.min_count = num_baskets / 200;
  options.support.cell_fraction = 0.25;
  options.max_level = 3;
  return options;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Fingerprint(const MiningResult& result) {
  std::string out;
  for (const CorrelationRule& rule : result.significant) {
    out += rule.itemset.ToString() + ':' +
           std::to_string(Bits(rule.chi2.statistic)) + ':' +
           std::to_string(Bits(rule.chi2.p_value)) + ';';
  }
  for (const LevelStats& level : result.levels) {
    out += std::to_string(level.candidates) + '/' +
           std::to_string(level.significant) + '/' +
           std::to_string(level.not_significant) + ';';
  }
  return out;
}

struct Run {
  double delta_fraction = 0.0;
  uint64_t base_baskets = 0;
  uint64_t delta_baskets = 0;
  double full_seconds = 0.0;
  double repair_seconds = 0.0;
  double speedup = 0.0;
  uint64_t memo_misses = 0;
};

Run MeasureDelta(const TransactionDatabase& base, double delta_fraction) {
  const uint64_t base_baskets = base.num_baskets();
  const uint64_t delta_baskets =
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                base_baskets * delta_fraction));
  const MinerOptions options = BenchMinerOptions(base_baskets);

  // Prime the incremental side over the base rows: after this first
  // repair the memo holds every count the walk needs for the base window.
  SessionOptions session_options;
  auto inc = IncrementalMiner::Create(base, session_options, options);
  CORRMINE_CHECK(inc.ok()) << inc.status().ToString();
  CORRMINE_CHECK(inc->Repair().ok());
  const uint64_t misses_before =
      MetricsRegistry::Global().GetCounter("repair.memo_misses")->Value();

  TransactionDatabase delta = Quest(8888 + delta_baskets, delta_baskets);
  TransactionDatabase combined = base;
  for (size_t row = 0; row < delta.num_baskets(); ++row) {
    CORRMINE_CHECK(combined.AddBasket(delta.basket(row)).ok());
  }

  // Repair side: delta into session + memo in place, then re-walk.
  auto start = std::chrono::steady_clock::now();
  CORRMINE_CHECK(inc->Append(delta).ok());
  auto repaired = inc->Repair();
  CORRMINE_CHECK(repaired.ok()) << repaired.status().ToString();
  const double repair_seconds = SecondsSince(start);

  // Full side: rebuild the session over the combined window and mine.
  start = std::chrono::steady_clock::now();
  auto full_session =
      MiningSession::FromDatabase(combined, session_options);
  CORRMINE_CHECK(full_session.ok());
  auto full = full_session->Mine(options);
  const double full_seconds = SecondsSince(start);
  CORRMINE_CHECK(full.ok()) << full.status().ToString();

  CORRMINE_CHECK(Fingerprint(*repaired) == Fingerprint(*full))
      << "repair diverged from the from-scratch mine at delta fraction "
      << delta_fraction;

  Run run;
  run.delta_fraction = delta_fraction;
  run.base_baskets = base_baskets;
  run.delta_baskets = delta_baskets;
  run.full_seconds = full_seconds;
  run.repair_seconds = repair_seconds;
  run.speedup = repair_seconds > 0.0 ? full_seconds / repair_seconds : 0.0;
  run.memo_misses =
      MetricsRegistry::Global().GetCounter("repair.memo_misses")->Value() -
      misses_before;
  return run;
}

int Main() {
  const TransactionDatabase base = Quest(1997, 300000);
  std::vector<Run> runs;
  for (double fraction : {0.005, 0.01, 0.05}) {
    runs.push_back(MeasureDelta(base, fraction));
  }

  // Doubles go through FormatJsonNumber so the BENCH_incremental.json
  // seed never holds scientific notation.
  const auto num = [](double v) { return bench::FormatJsonNumber(v); };
  std::ostringstream fields;
  fields << "\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (i > 0) fields << ',';
    fields << "{\"delta_fraction\":" << num(run.delta_fraction)
           << ",\"base_baskets\":" << run.base_baskets
           << ",\"delta_baskets\":" << run.delta_baskets
           << ",\"full_seconds\":" << num(run.full_seconds)
           << ",\"repair_seconds\":" << num(run.repair_seconds)
           << ",\"speedup\":" << num(run.speedup)
           << ",\"memo_misses\":" << run.memo_misses << '}';
  }
  fields << ']';
  bench::EmitBenchJsonLine("bench_incremental", fields.str());

  io::TablePrinter table({"delta", "rows", "full s", "repair s", "speedup",
                          "memo misses"});
  for (const Run& run : runs) {
    std::ostringstream frac;
    frac << run.delta_fraction * 100 << "%";
    table.AddRow({frac.str(), std::to_string(run.delta_baskets),
                  io::FormatDouble(run.full_seconds, 4),
                  io::FormatDouble(run.repair_seconds, 4),
                  io::FormatDouble(run.speedup, 2),
                  std::to_string(run.memo_misses)});
  }
  table.Print(std::cout);
  bench::EmitMetricsLine("bench_incremental");
  return 0;
}

}  // namespace
}  // namespace corrmine

int main() { return corrmine::Main(); }
