// Throughput of the counting kernels (DESIGN.md §9), two ways:
//
//  1. Microbenchmark: fused AND+popcount (and the k=4 multi-way AND) over
//     L2-resident word buffers, once per runnable kernel. Scored in
//     words/sec against the scalar kernel — the acceptance bar for the
//     SIMD dispatch layer is >= 2x best-vs-scalar here.
//  2. End to end: the full chi-squared mine over a quest workload, forced
//     onto each kernel in turn via SetActiveKernel. Verdicts must be
//     byte-identical across kernels (CHECK-enforced on the deterministic
//     stats line); only the wall clock may move.
//
// Emits one "BENCH_JSON " line (the BENCH_kernels.json seed), the human
// table, and the standard BENCH_METRICS tail.

#include <chrono>

#include "bench_metrics.h"
#include <cstdint>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/chi_squared_miner.h"
#include "datagen/quest_generator.h"
#include "io/stats_json.h"
#include "io/table_printer.h"
#include "itemset/count_provider.h"
#include "itemset/kernels.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double SafeRatio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// 16384 words = 128 KiB per operand: big enough to stream, small enough
/// that two operands stay L2-resident — the regime the blocked executor's
/// tiles put the kernels in.
constexpr size_t kWords = 16384;
constexpr int kCallsPerRep = 64;
constexpr int kReps = 5;

std::vector<uint64_t> RandomWords(size_t n, std::mt19937_64* rng) {
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) w = (*rng)();
  return words;
}

struct MicroResult {
  std::string name;
  double and_words_per_sec = 0;
  double multi_words_per_sec = 0;
};

struct MineResult {
  std::string name;
  double seconds = 0;
};

}  // namespace
}  // namespace corrmine

int main() {
  using namespace corrmine;

  // --- Microbenchmark: AND+popcount and 4-way multi-AND word throughput.
  std::mt19937_64 rng(1997);
  std::vector<uint64_t> a = RandomWords(kWords, &rng);
  std::vector<uint64_t> b = RandomWords(kWords, &rng);
  std::vector<uint64_t> c = RandomWords(kWords, &rng);
  std::vector<uint64_t> d = RandomWords(kWords, &rng);
  const uint64_t* multi_ops[4] = {a.data(), b.data(), c.data(), d.data()};

  std::vector<MicroResult> micro;
  uint64_t and_checksum = 0, multi_checksum = 0;
  for (const CountingKernels* kernels : AvailableKernels()) {
    MicroResult r;
    r.name = kernels->name;
    // Each rep makes kCallsPerRep full passes; best-of-kReps minimum is
    // the jitter-robust estimator for a deterministic workload.
    uint64_t sink = 0;
    double and_seconds = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      for (int call = 0; call < kCallsPerRep; ++call) {
        sink += kernels->and_count(a.data(), b.data(), kWords);
      }
      double seconds = SecondsSince(start);
      if (rep == 0 || seconds < and_seconds) and_seconds = seconds;
    }
    r.and_words_per_sec =
        SafeRatio(static_cast<double>(kWords) * kCallsPerRep, and_seconds);

    uint64_t multi_sink = 0;
    double multi_seconds = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      for (int call = 0; call < kCallsPerRep; ++call) {
        multi_sink += kernels->multi_and_count(multi_ops, 4, kWords);
      }
      double seconds = SecondsSince(start);
      if (rep == 0 || seconds < multi_seconds) multi_seconds = seconds;
    }
    r.multi_words_per_sec =
        SafeRatio(static_cast<double>(kWords) * kCallsPerRep, multi_seconds);

    // Cross-kernel agreement doubles as the dead-code-elimination guard:
    // the timed results feed a CHECK, so the loops cannot be optimized out.
    if (micro.empty()) {
      and_checksum = sink;
      multi_checksum = multi_sink;
    } else {
      CORRMINE_CHECK(sink == and_checksum)
          << kernels->name << " and_count diverged from scalar";
      CORRMINE_CHECK(multi_sink == multi_checksum)
          << kernels->name << " multi_and_count diverged from scalar";
    }
    micro.push_back(r);
  }
  const double scalar_and = micro.front().and_words_per_sec;
  const double scalar_multi = micro.front().multi_words_per_sec;

  // --- End to end: the full mine, forced onto each kernel.
  datagen::QuestOptions quest;
  quest.num_transactions = 8000;
  quest.num_items = 120;
  quest.avg_transaction_size = 10.0;
  quest.num_patterns = 40;
  auto db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(db.ok());
  BitmapCountProvider provider(*db);

  MinerOptions options;
  options.support.min_count = 3;
  options.support.cell_fraction = 0.26;
  options.max_level = 4;

  std::vector<MineResult> mines;
  std::string deterministic_line;
  for (const CountingKernels* kernels : AvailableKernels()) {
    CORRMINE_CHECK(SetActiveKernel(kernels->name).ok());
    MineResult r;
    r.name = kernels->name;
    std::string line;
    constexpr int kMineReps = 3;
    for (int rep = 0; rep < kMineReps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      auto result = MineCorrelations(provider, db->num_items(), options);
      double seconds = SecondsSince(start);
      CORRMINE_CHECK(result.ok());
      if (rep == 0 || seconds < r.seconds) r.seconds = seconds;
      line = RenderDeterministicStats(*result);
    }
    if (deterministic_line.empty()) {
      deterministic_line = line;
    } else {
      CORRMINE_CHECK(line == deterministic_line)
          << "kernel " << kernels->name
          << " changed the deterministic stats line";
    }
    mines.push_back(r);
  }
  CORRMINE_CHECK(SetActiveKernel("auto").ok());
  const double scalar_mine = mines.front().seconds;

  double best_and_speedup = 1.0;
  for (const MicroResult& r : micro) {
    best_and_speedup = std::max(
        best_and_speedup, SafeRatio(r.and_words_per_sec, scalar_and));
  }

  // Doubles go through FormatJsonNumber: word rates seeded as "2.1e+08"
  // stop round-tripping the moment anyone diffs the trajectory file.
  const auto num = [](double v) { return bench::FormatJsonNumber(v); };
  std::ostringstream json;
  json << "\"active\":\"" << ActiveKernelName() << "\""
       << ",\"words_per_operand\":" << kWords
       << ",\"best_and_speedup\":" << num(best_and_speedup)
       << ",\"kernels\":[";
  for (size_t i = 0; i < micro.size(); ++i) {
    if (i > 0) json << ',';
    json << "{\"name\":\"" << micro[i].name << "\""
         << ",\"and_words_per_sec\":" << num(micro[i].and_words_per_sec)
         << ",\"and_speedup\":"
         << num(SafeRatio(micro[i].and_words_per_sec, scalar_and))
         << ",\"multi4_words_per_sec\":" << num(micro[i].multi_words_per_sec)
         << ",\"multi4_speedup\":"
         << num(SafeRatio(micro[i].multi_words_per_sec, scalar_multi))
         << ",\"mine_seconds\":" << num(mines[i].seconds)
         << ",\"mine_speedup\":"
         << num(SafeRatio(scalar_mine, mines[i].seconds)) << '}';
  }
  json << "]";
  bench::EmitBenchJsonLine("bench_kernels", json.str());

  io::TablePrinter table({"kernel", "AND Gwords/s", "x scalar",
                          "4-AND Gwords/s", "x scalar", "mine s",
                          "mine x"});
  for (size_t i = 0; i < micro.size(); ++i) {
    table.AddRow(
        {micro[i].name,
         io::FormatDouble(micro[i].and_words_per_sec / 1e9, 2),
         io::FormatDouble(SafeRatio(micro[i].and_words_per_sec, scalar_and),
                          2),
         io::FormatDouble(micro[i].multi_words_per_sec / 1e9, 2),
         io::FormatDouble(
             SafeRatio(micro[i].multi_words_per_sec, scalar_multi), 2),
         io::FormatDouble(mines[i].seconds, 3),
         io::FormatDouble(SafeRatio(scalar_mine, mines[i].seconds), 2)});
  }
  std::cout << "== Counting-kernel throughput (AND+popcount, "
            << kWords << "-word operands) ==\n\n";
  table.Print(std::cout);
  std::cout << "\nmined verdicts byte-identical across all "
            << micro.size() << " kernels.\n";
  bench::EmitMetricsLine("bench_kernels");
  return 0;
}
