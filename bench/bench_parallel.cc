// Throughput of the parallel level-wise mining engine at 1/2/4/8 threads on
// Quest-style synthetic data, plus the tracing and profiling overheads on
// the same workload. Emits one machine-readable JSON line
// (prefixed "BENCH_JSON ") per run so the BENCH_*.json trajectory files can
// be seeded straight from the output; the human-readable table follows.
//
// Determinism contract: every thread count must produce the same
// MiningResult; this harness CHECK-fails if any run diverges from the
// single-thread baseline.

#include <chrono>

#include "bench_metrics.h"
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/pmu.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "core/chi_squared_miner.h"
#include "datagen/quest_generator.h"
#include "io/table_printer.h"
#include "itemset/count_provider.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string ResultFingerprint(const MiningResult& result) {
  std::ostringstream out;
  for (const CorrelationRule& rule : result.significant) {
    out << rule.itemset.ToString() << ':' << rule.chi2.statistic << ';';
  }
  for (const LevelStats& level : result.levels) {
    out << level.level << '/' << level.candidates << '/' << level.discards
        << '/' << level.significant << '/' << level.not_significant << ';';
  }
  return out.str();
}

struct ThreadRun {
  int threads;
  double seconds;
};

/// a/b with a 0 fallback: sub-millisecond timer readings can round to 0 on
/// fast machines, and a speedup of 0 is a clearer "no signal" than inf/nan.
double SafeRatio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace
}  // namespace corrmine

int main() {
  using namespace corrmine;

  // Quest workload sized so the 8-thread run still has thousands of
  // candidate evaluations per flush; low min_count pushes the search to
  // level 3+, where prefix groups have siblings to share.
  datagen::QuestOptions quest;
  quest.num_transactions = 20000;
  quest.num_items = 400;
  quest.avg_transaction_size = 10.0;
  quest.num_patterns = 80;
  auto db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(db.ok());
  BitmapCountProvider provider(*db);

  MinerOptions options;
  options.support.min_count = static_cast<uint64_t>(
      0.01 * static_cast<double>(db->num_baskets()));
  options.support.cell_fraction = 0.25 + 1e-9;

  // Thread sweep. Each setting is checked against the sequential baseline
  // fingerprint — the speedup numbers are only meaningful if the outputs
  // are identical.
  std::string baseline_fingerprint;
  uint64_t total_candidates = 0;
  std::vector<ThreadRun> runs;
  for (int threads : {1, 2, 4, 8}) {
    options.num_threads = threads;
    auto start = std::chrono::steady_clock::now();
    auto result = MineCorrelations(provider, db->num_items(), options);
    double seconds = SecondsSince(start);
    CORRMINE_CHECK(result.ok()) << result.status().ToString();
    std::string fingerprint = ResultFingerprint(*result);
    if (threads == 1) {
      baseline_fingerprint = fingerprint;
      for (const LevelStats& level : result->levels) {
        total_candidates += level.candidates;
      }
    } else {
      CORRMINE_CHECK(fingerprint == baseline_fingerprint)
          << "parallel run at " << threads << " threads diverged";
    }
    runs.push_back(ThreadRun{threads, seconds});
  }

  // Tracing overhead on the headline configuration: interleaved
  // traced/untraced repeats of the 8-thread run, best-of-3 each side so
  // scheduler and turbo jitter (easily 10%+ between single seconds-scale
  // runs) doesn't swamp the signal. The acceptance budget is a ratio
  // <= 1.05; both numbers go into the JSON line so sweeps can watch it.
  const ThreadRun& headline = runs.back();
  options.num_threads = headline.threads;
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
  double traced_seconds = 0.0;
  double untraced_seconds = 0.0;
  constexpr int kOverheadReps = 3;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    auto untraced_start = std::chrono::steady_clock::now();
    auto untraced_result = MineCorrelations(provider, db->num_items(), options);
    double seconds = SecondsSince(untraced_start);
    CORRMINE_CHECK(untraced_result.ok());
    if (rep == 0 || seconds < untraced_seconds) untraced_seconds = seconds;

    Tracer::Global().Start();
    auto traced_start = std::chrono::steady_clock::now();
    auto traced_result = MineCorrelations(provider, db->num_items(), options);
    seconds = SecondsSince(traced_start);
    Tracer::Global().Stop();
    CORRMINE_CHECK(traced_result.ok()) << traced_result.status().ToString();
    CORRMINE_CHECK(ResultFingerprint(*traced_result) == baseline_fingerprint)
        << "tracing changed the mining result";
    if (rep == 0 || seconds < traced_seconds) traced_seconds = seconds;
    trace_events = 0;
    trace_dropped = 0;
    for (const Tracer::ThreadTrace& thread : Tracer::Global().Collect()) {
      trace_events += thread.events.size();
      trace_dropped += thread.dropped;
    }
  }
  double trace_overhead = SafeRatio(traced_seconds, untraced_seconds);

  // Profiling overhead, same protocol: interleaved profiled/unprofiled
  // repeats with both collectors on (PMU if this machine grants it, plus
  // SIGPROF sampling at a deliberately coarse 10 ms so the bench measures
  // steady-state cost, not signal storms). Pure-observer is re-proven on
  // every rep via the fingerprint.
  double profiled_seconds = 0.0;
  double unprofiled_seconds = 0.0;
  uint64_t profile_samples = 0;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    auto unprofiled_start = std::chrono::steady_clock::now();
    auto unprofiled_result =
        MineCorrelations(provider, db->num_items(), options);
    double seconds = SecondsSince(unprofiled_start);
    CORRMINE_CHECK(unprofiled_result.ok());
    if (rep == 0 || seconds < unprofiled_seconds) unprofiled_seconds = seconds;

    ProfilerOptions profiler_options;
    profiler_options.pmu = true;
    profiler_options.sampling = true;
    profiler_options.sample_interval_usec = 10000;
    Profiler::Global().Start(profiler_options);
    auto profiled_start = std::chrono::steady_clock::now();
    auto profiled_result =
        MineCorrelations(provider, db->num_items(), options);
    seconds = SecondsSince(profiled_start);
    Profiler::Global().Stop();
    CORRMINE_CHECK(profiled_result.ok())
        << profiled_result.status().ToString();
    CORRMINE_CHECK(ResultFingerprint(*profiled_result) ==
                   baseline_fingerprint)
        << "profiling changed the mining result";
    if (rep == 0 || seconds < profiled_seconds) profiled_seconds = seconds;
    profile_samples = Profiler::Global().samples_recorded();
  }
  double profile_overhead = SafeRatio(profiled_seconds, unprofiled_seconds);
  const bool pmu_available = ProbePmu().available;

  // Machine-readable line first (the BENCH_*.json seed), table second.
  // Doubles go through FormatJsonNumber so the seed never holds
  // scientific notation (exact integers stay exact).
  const auto num = [](double v) { return bench::FormatJsonNumber(v); };
  std::ostringstream json;
  json << "\"workload\":\"quest\""
       << ",\"baskets\":" << db->num_baskets()
       << ",\"items\":" << static_cast<uint64_t>(db->num_items())
       << ",\"candidates\":" << total_candidates << ",\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) json << ',';
    json << "{\"threads\":" << runs[i].threads << ",\"seconds\":"
         << num(runs[i].seconds) << ",\"speedup\":"
         << num(SafeRatio(runs[0].seconds, runs[i].seconds)) << '}';
  }
  json << "],\"trace\":{\"threads\":" << headline.threads
       << ",\"seconds\":" << num(traced_seconds)
       << ",\"untraced_seconds\":" << num(untraced_seconds)
       << ",\"overhead_ratio\":" << num(trace_overhead)
       << ",\"events\":" << trace_events
       << ",\"dropped\":" << trace_dropped << "}"
       << ",\"profile\":{\"threads\":" << headline.threads
       << ",\"seconds\":" << num(profiled_seconds)
       << ",\"unprofiled_seconds\":" << num(unprofiled_seconds)
       << ",\"overhead_ratio\":" << num(profile_overhead)
       << ",\"samples\":" << profile_samples
       << ",\"pmu_available\":" << (pmu_available ? "true" : "false") << "}";
  bench::EmitBenchJsonLine("bench_parallel", json.str());

  io::TablePrinter table({"threads", "mine s", "speedup"});
  for (const ThreadRun& run : runs) {
    table.AddRow({std::to_string(run.threads),
                  io::FormatDouble(run.seconds, 3),
                  io::FormatDouble(SafeRatio(runs[0].seconds, run.seconds),
                                   2)});
  }
  std::cout << "== Parallel miner throughput (quest, s = 1%) ==\n\n";
  table.Print(std::cout);
  std::cout << "\n== Tracing overhead (" << headline.threads
            << " threads) ==\n\ntraced " << io::FormatDouble(traced_seconds, 3)
            << "s vs " << io::FormatDouble(untraced_seconds, 3)
            << "s untraced (best of " << kOverheadReps << ", ratio "
            << io::FormatDouble(trace_overhead, 3) << "), " << trace_events
            << " events recorded, " << trace_dropped << " dropped.\n";
  std::cout << "\n== Profiling overhead (" << headline.threads
            << " threads, PMU " << (pmu_available ? "on" : "unavailable")
            << " + 10ms sampling) ==\n\nprofiled "
            << io::FormatDouble(profiled_seconds, 3) << "s vs "
            << io::FormatDouble(unprofiled_seconds, 3)
            << "s unprofiled (best of " << kOverheadReps << ", ratio "
            << io::FormatDouble(profile_overhead, 3) << "), "
            << profile_samples << " samples captured.\n";
  corrmine::bench::EmitMetricsLine("bench_parallel");
  return 0;
}
