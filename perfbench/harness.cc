// In-process half of the `corrmine_cli mine` benchmark (perfbench/run.py
// drives it). Three subcommands:
//
//   prepare  generate Quest baskets from a seed and write them as CMB1 files,
//            timing each io::WriteBinaryTransactionFile (set-up time);
//            optionally mine an oracle reference result in-process.
//   check    validate a rules file the CLI wrote: pinned per-level counts
//            plus a seeded sample of rules recounted by a direct row scan.
//   trace    make the CLI's calls in-process, in the CLI's order, timing
//            each public call and recording one span per call; alternate
//            with the same sequence untraced to measure tracing overhead.
//
// Every subcommand prints one JSON object on its last stdout line.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "core/border_repair.h"
#include "core/border_state.h"
#include "core/chi_squared_miner.h"
#include "core/interest.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/result_io.h"
#include "io/sharded_loader.h"
#include "io/table_printer.h"

namespace corrmine::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// χ²(1) upper 5% point: the paper's cutoff at confidence 0.95 with one
// degree of freedom (DofPolicy::kPaperSingle).
constexpr double kChi2Cutoff = 3.841458820694124;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

// The basket stream every workload is cut from: the paper's 870-item Quest
// generator, seeded with `dataset_seed`, with item ids relabelled by a
// permutation drawn from `seed`. Each seed is a distinct input whose mining
// work is identical up to item order, so run-to-run figures differ by noise
// rather than by how many correlations a random pattern pool happens to
// hold; another dataset seed gives another pattern pool. Regenerating the
// stream (instead of reading the CMB1 file back) keeps the checks
// independent of the decoder under test.
TransactionDatabase GenerateBaskets(uint64_t dataset_seed, uint64_t seed,
                                    uint64_t baskets) {
  datagen::QuestOptions options;
  options.seed = dataset_seed;
  options.num_transactions = baskets;
  auto generated = datagen::GenerateQuestData(options);
  CORRMINE_CHECK(generated.ok()) << generated.status().ToString();
  // Fisher-Yates over mt19937_64 draws: the same permutation on every
  // platform (std::shuffle's use of the engine is implementation-defined).
  std::vector<ItemId> relabel(generated->num_items());
  for (ItemId i = 0; i < relabel.size(); ++i) relabel[i] = i;
  std::mt19937_64 rng(seed);
  for (size_t i = relabel.size(); i > 1; --i) {
    std::swap(relabel[i - 1], relabel[rng() % i]);
  }
  TransactionDatabase db(generated->num_items());
  std::vector<ItemId> basket;
  for (size_t row = 0; row < generated->num_baskets(); ++row) {
    basket.clear();
    for (ItemId item : generated->basket(row)) basket.push_back(relabel[item]);
    CORRMINE_CHECK(db.AddBasket(basket).ok());
  }
  return db;
}

TransactionDatabase SliceRows(const TransactionDatabase& db, size_t begin,
                              size_t end) {
  TransactionDatabase out(db.num_items());
  for (size_t row = begin; row < end; ++row) {
    CORRMINE_CHECK(out.AddBasket(db.basket(row)).ok());
  }
  return out;
}

// Reference counting for the oracle mine: one plain bitmap per item and a
// scalar AND/popcount chain per query. No SIMD kernels, no prefix blocking,
// no sharding — nothing the counting layer under test could share a defect
// with. Batches use the default scalar loop of CountProvider.
class OracleCountProvider : public CountProvider {
 public:
  explicit OracleCountProvider(const TransactionDatabase& db)
      : num_baskets_(db.num_baskets()),
        words_((db.num_baskets() + 63) / 64),
        columns_(db.num_items(), std::vector<uint64_t>(words_, 0)) {
    for (size_t row = 0; row < db.num_baskets(); ++row) {
      for (ItemId item : db.basket(row)) {
        columns_[item][row / 64] |= uint64_t{1} << (row % 64);
      }
    }
  }

  uint64_t num_baskets() const override { return num_baskets_; }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override {
    uint64_t total = 0;
    for (size_t w = 0; w < words_; ++w) {
      uint64_t word = ~uint64_t{0};
      for (ItemId item : s) word &= columns_[item][w];
      total += static_cast<uint64_t>(std::popcount(word));
    }
    return total;
  }

 private:
  uint64_t num_baskets_;
  size_t words_;
  std::vector<std::vector<uint64_t>> columns_;
};

// ---------------------------------------------------------------- prepare

int RunPrepare(const FlagParser& flags) {
  const std::string dir = flags.GetString("dir", "");
  const uint64_t dataset_seed = flags.GetUint64("dataset-seed", 1997).value();
  const uint64_t seed = flags.GetUint64("seed", 1).value();
  const uint64_t baskets = flags.GetUint64("baskets", 0).value();
  const uint64_t delta = flags.GetUint64("delta", 0).value();
  // Writes repeat until both floors are met, so that small inputs still give
  // a median over enough time to be steady.
  const uint64_t min_reps = std::max<uint64_t>(1, flags.GetUint64("reps", 5).value());
  const double min_seconds = flags.GetDouble("min-seconds", 1.0).value();
  CORRMINE_CHECK(!dir.empty() && baskets > 0) << "prepare needs --dir and --baskets";

  const TransactionDatabase stream = GenerateBaskets(dataset_seed, seed, baskets + delta);
  std::optional<TransactionDatabase> base, tail;
  if (delta > 0) {
    base.emplace(SliceRows(stream, 0, baskets));
    tail.emplace(SliceRows(stream, baskets, baskets + delta));
  }

  // Set-up time: writing the inputs the timed runs read, repeated so the
  // caller can take a median. Generation above is excluded.
  std::vector<double> write_s;
  const auto setup_start = Clock::now();
  while (write_s.size() < min_reps ||
         (Seconds(setup_start, Clock::now()) < min_seconds && write_s.size() < 1000)) {
    const auto start = Clock::now();
    if (delta > 0) {
      CORRMINE_CHECK(io::WriteBinaryTransactionFile(*base, dir + "/base.cmb").ok());
      CORRMINE_CHECK(io::WriteBinaryTransactionFile(*tail, dir + "/delta.cmb").ok());
    } else {
      CORRMINE_CHECK(io::WriteBinaryTransactionFile(stream, dir + "/input.cmb").ok());
    }
    write_s.push_back(Seconds(start, Clock::now()));
  }
  // base+delta in one file: the input of the from-scratch reference mine.
  if (delta > 0) {
    CORRMINE_CHECK(io::WriteBinaryTransactionFile(stream, dir + "/full.cmb").ok());
  }

  double oracle_s = 0.0;
  if (flags.GetBool("oracle", false)) {
    const auto start = Clock::now();
    OracleCountProvider oracle(stream);
    MinerOptions options;
    options.support.min_count = flags.GetUint64("support-count", 3).value();
    options.support.cell_fraction = flags.GetDouble("cell-fraction", 0.26).value();
    options.num_threads = 1;
    auto result = MineCorrelations(oracle, stream.num_items(), options);
    CORRMINE_CHECK(result.ok()) << result.status().ToString();
    CORRMINE_CHECK(io::WriteMiningResult(*result, dir + "/reference.out").ok());
    oracle_s = Seconds(start, Clock::now());
  }

  std::cout << "{\"write_s\": [";
  for (size_t i = 0; i < write_s.size(); ++i) {
    std::cout << (i ? ", " : "") << JsonNumber(write_s[i]);
  }
  std::cout << "], \"baskets\": " << stream.num_baskets()
            << ", \"oracle_s\": " << JsonNumber(oracle_s) << "}" << std::endl;
  return 0;
}

// ------------------------------------------------------------------ check

// Observed cells of one itemset, indexed by presence mask (bit j = j-th
// item of the sorted itemset present).
struct RecountedTable {
  std::vector<ItemId> items;
  std::vector<uint64_t> cells;
};

struct TableVerdict {
  double statistic = 0.0;
  bool supported = false;
  std::vector<double> contribution;
  std::vector<double> interest;
};

TableVerdict Evaluate(const RecountedTable& table,
                      const std::vector<uint64_t>& item_counts, uint64_t n,
                      const CellSupportPolicy& policy) {
  TableVerdict verdict;
  const size_t num_cells = table.cells.size();
  verdict.contribution.resize(num_cells);
  verdict.interest.resize(num_cells);
  uint64_t supported_cells = 0;
  for (size_t mask = 0; mask < num_cells; ++mask) {
    double expected = static_cast<double>(n);
    for (size_t j = 0; j < table.items.size(); ++j) {
      const double p = static_cast<double>(item_counts[table.items[j]]) /
                       static_cast<double>(n);
      expected *= (mask >> j) & 1 ? p : 1.0 - p;
    }
    const double observed = static_cast<double>(table.cells[mask]);
    verdict.contribution[mask] =
        expected > 0 ? (observed - expected) * (observed - expected) / expected
                     : 0.0;
    verdict.interest[mask] = expected > 0 ? observed / expected : 0.0;
    verdict.statistic += verdict.contribution[mask];
    if (table.cells[mask] >= policy.min_count) ++supported_cells;
  }
  const double required = std::max(
      1.0, std::ceil(policy.cell_fraction * static_cast<double>(num_cells) - 1e-9));
  verdict.supported = static_cast<double>(supported_cells) >= required;
  return verdict;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// Returns an empty string when `result` passes, else the first defect.
std::string CheckResult(const MiningResult& result,
                        const TransactionDatabase& db,
                        const CellSupportPolicy& policy, uint64_t sample,
                        uint64_t sample_seed) {
  const uint64_t n = db.num_baskets();
  std::vector<uint64_t> item_counts(db.num_items(), 0);
  for (size_t row = 0; row < n; ++row) {
    for (ItemId item : db.basket(row)) ++item_counts[item];
  }

  // Table 5 columns: each level's totals must add up, agree with the rules
  // listed for it, and level 2 must hold exactly the Figure 1 step 3 pairs.
  if (result.levels.empty() || result.levels.front().level != 2) {
    return "result does not start at level 2";
  }
  uint64_t frequent_items = 0;
  for (uint64_t count : item_counts) frequent_items += count > policy.min_count;
  for (size_t i = 0; i < result.levels.size(); ++i) {
    const LevelStats& level = result.levels[i];
    if (level.level != static_cast<int>(i) + 2) return "levels not consecutive";
    if (level.possible_itemsets != BinomialCount(db.num_items(), level.level)) {
      return "level " + std::to_string(level.level) + " possible itemsets";
    }
    if (level.candidates !=
        level.discards + level.significant + level.not_significant) {
      return "level " + std::to_string(level.level) +
             " candidates != discards + sig + notsig";
    }
    const uint64_t rules_at_level = static_cast<uint64_t>(std::count_if(
        result.significant.begin(), result.significant.end(),
        [&](const CorrelationRule& r) {
          return r.itemset.size() == static_cast<size_t>(level.level);
        }));
    if (rules_at_level != level.significant) {
      return "level " + std::to_string(level.level) + " |SIG| != rules listed";
    }
  }
  if (result.levels.front().candidates != BinomialCount(frequent_items, 2)) {
    return "level 2 candidates != C(items with O(i) > s, 2)";
  }

  // Seeded sample of emitted rules; each is recounted together with its
  // (k-1)-subsets, which Figure 1 requires to be supported and uncorrelated.
  std::vector<size_t> picks(result.significant.size());
  for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  std::mt19937_64 rng(sample_seed);
  std::shuffle(picks.begin(), picks.end(), rng);
  picks.resize(std::min<size_t>(picks.size(), sample));

  std::vector<RecountedTable> tables;
  for (size_t pick : picks) {
    const Itemset& set = result.significant[pick].itemset;
    tables.push_back({set.items(), std::vector<uint64_t>(size_t{1} << set.size())});
    if (set.size() < 3) continue;
    for (size_t drop = 0; drop < set.size(); ++drop) {
      std::vector<ItemId> subset;
      for (size_t j = 0; j < set.size(); ++j) {
        if (j != drop) subset.push_back(set.item(j));
      }
      tables.push_back({subset, std::vector<uint64_t>(size_t{1} << subset.size())});
    }
  }
  std::vector<uint8_t> present(db.num_items(), 0);
  for (size_t row = 0; row < n; ++row) {
    for (ItemId item : db.basket(row)) present[item] = 1;
    for (RecountedTable& table : tables) {
      size_t mask = 0;
      for (size_t j = 0; j < table.items.size(); ++j) {
        mask |= size_t{present[table.items[j]]} << j;
      }
      ++table.cells[mask];
    }
    for (ItemId item : db.basket(row)) present[item] = 0;
  }

  size_t next = 0;
  for (size_t pick : picks) {
    const CorrelationRule& rule = result.significant[pick];
    const std::string name = rule.itemset.ToString();
    const TableVerdict verdict = Evaluate(tables[next++], item_counts, n, policy);
    if (!verdict.supported) return name + " lacks cell support";
    if (!Close(verdict.statistic, rule.chi2.statistic)) {
      return name + " chi2 " + std::to_string(rule.chi2.statistic) +
             " != recount " + std::to_string(verdict.statistic);
    }
    if (verdict.statistic < kChi2Cutoff * (1 - 1e-9) || !(rule.chi2.p_value < 0.05)) {
      return name + " is not significant";
    }
    const uint32_t mask = rule.major_dependence.mask;
    if (mask >= verdict.contribution.size() ||
        verdict.contribution[mask] <
            *std::max_element(verdict.contribution.begin(),
                              verdict.contribution.end()) * (1 - 1e-9) ||
        !Close(verdict.interest[mask], rule.major_dependence.interest)) {
      return name + " major dependence cell";
    }
    if (rule.itemset.size() == 2) {
      for (ItemId item : rule.itemset) {
        if (item_counts[item] <= policy.min_count) {
          return name + " has an item with O(i) <= s";
        }
      }
      continue;
    }
    for (size_t drop = 0; drop < rule.itemset.size(); ++drop) {
      const TableVerdict sub = Evaluate(tables[next++], item_counts, n, policy);
      if (!sub.supported || sub.statistic > kChi2Cutoff * (1 + 1e-9)) {
        return name + " is not minimal (a subset is unsupported or correlated)";
      }
    }
  }
  return "";
}

// Reads the CLI's `--out` format (io/result_io.h) without the library's
// parser, which rejects the subnormal p-values that very strong rules print
// (e.g. 1.9762625833649862e-323): the checker must not share the reader's
// limits, only the format.
StatusOr<MiningResult> ReadRulesFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open " + path);
  MiningResult result;
  std::string line;
  size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    auto number = [&](double* out) {
      std::string token;
      if (!(fields >> token)) return false;
      char* end = nullptr;
      *out = std::strtod(token.c_str(), &end);  // subnormals are kept
      return end != token.c_str() && *end == '\0';
    };
    bool ok = true;
    if (kind == "level") {
      LevelStats level;
      ok = static_cast<bool>(fields >> level.level >> level.possible_itemsets >>
                             level.candidates >> level.discards >>
                             level.significant >> level.not_significant);
      result.levels.push_back(level);
    } else if (kind == "rule") {
      CorrelationRule rule;
      double dof = 0.0;
      ok = number(&rule.chi2.statistic) && number(&rule.chi2.p_value) &&
           number(&dof) && static_cast<bool>(fields >> rule.major_dependence.mask) &&
           number(&rule.major_dependence.interest);
      rule.chi2.dof = static_cast<int64_t>(dof);
      std::vector<ItemId> items;
      ItemId item = 0;
      while (fields >> item) items.push_back(item);
      ok = ok && !items.empty() && std::is_sorted(items.begin(), items.end());
      rule.itemset = Itemset(std::move(items));
      result.significant.push_back(std::move(rule));
    } else {
      ok = false;
    }
    if (!ok) {
      return Status::Corruption(path + ":" + std::to_string(line_no) + ": " + line);
    }
  }
  return result;
}

int RunCheck(const FlagParser& flags) {
  const uint64_t dataset_seed = flags.GetUint64("dataset-seed", 1997).value();
  const uint64_t seed = flags.GetUint64("seed", 1).value();
  const uint64_t baskets = flags.GetUint64("baskets", 0).value();
  CellSupportPolicy policy;
  policy.min_count = flags.GetUint64("support-count", 3).value();
  policy.cell_fraction = flags.GetDouble("cell-fraction", 0.26).value();
  const uint64_t sample = flags.GetUint64("sample", 64).value();
  const TransactionDatabase db = GenerateBaskets(dataset_seed, seed, baskets);

  std::cout << "{\"files\": [";
  for (size_t i = 1; i < flags.positional().size(); ++i) {
    const std::string& path = flags.positional()[i];
    std::string defect;
    auto result = ReadRulesFile(path);
    if (!result.ok()) {
      defect = result.status().ToString();
    } else {
      defect = CheckResult(*result, db, policy, sample, seed * 7919 + 17);
    }
    std::cout << (i > 1 ? ", " : "") << "{\"path\": \"" << JsonEscape(path)
              << "\", \"ok\": " << (defect.empty() ? "true" : "false")
              << ", \"defect\": \"" << JsonEscape(defect) << "\"}";
  }
  std::cout << "]}" << std::endl;
  return 0;
}

// ------------------------------------------------------------------ trace

struct Span {
  int id = 0;
  int parent = -1;  // -1: top level of its run
  int run = 0;
  std::string name;
  double start_s = 0.0;  // since the trace epoch
  double end_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  // <= 0 when not measured for this span
  uint64_t queries = 0;      // count batches only
};

// Per-call peak memory from outside the library: writing "5" to
// /proc/self/clear_refs resets VmHWM to the current RSS, so VmHWM read after
// the call is that call's high-water mark. Where the kernel refuses the
// reset, the fallback is VmRSS after the call (an RSS delta view).
class MemoryProbe {
 public:
  MemoryProbe() { hwm_reset_ok_ = Reset(); }
  bool hwm_reset_ok() const { return hwm_reset_ok_; }

  bool Reset() const {
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5";
    refs.flush();
    return static_cast<bool>(refs);
  }

  double PeakMb() const { return ReadStatusKb(hwm_reset_ok_ ? "VmHWM:" : "VmRSS:") / 1024.0; }

 private:
  static double ReadStatusKb(const std::string& key) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
    }
    return 0.0;
  }

  bool hwm_reset_ok_ = false;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  double Now() const { return Seconds(epoch_, Clock::now()); }

  // Times one public call as a span of `run`, with CPU from getrusage
  // deltas. A call made inside another call's body becomes its child; only
  // top-level calls reset and read the memory probe, so a parent's peak is
  // never cut short by a child's reset. Returns the span id.
  int Call(int run, const std::string& name, const std::function<void()>& body) {
    const int id = static_cast<int>(spans_.size());
    spans_.emplace_back();
    Span& reserved = spans_.back();
    reserved.id = id;
    reserved.parent = open_.empty() ? -1 : open_.back();
    reserved.run = run;
    reserved.name = name;
    reserved.peak_rss_mb = -1;
    const bool top_level = open_.empty();
    if (top_level) memory_.Reset();
    open_.push_back(id);
    const double cpu0 = ProcessCpuSeconds();
    const double start = Now();
    body();
    const double end = Now();
    open_.pop_back();
    Span& span = spans_[id];
    span.start_s = start;
    span.end_s = end;
    span.cpu_s = ProcessCpuSeconds() - cpu0;
    if (top_level) span.peak_rss_mb = memory_.PeakMb();
    return id;
  }

  int Add(Span span) {
    span.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const MemoryProbe& memory() const { return memory_; }

  // Duration minus the part of the span covered by its direct children.
  double SelfSeconds(const Span& span) const {
    std::vector<std::pair<double, double>> children;
    for (const Span& s : spans_) {
      if (s.parent == span.id && s.run == span.run) children.emplace_back(s.start_s, s.end_s);
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0, reach = span.start_s;
    for (auto [start, end] : children) {
      start = std::max(start, reach);
      end = std::min(end, span.end_s);
      if (end > start) covered += end - start;
      reach = std::max(reach, end);
    }
    return (span.end_s - span.start_s) - covered;
  }

  // Chrome trace event format (chrome://tracing, Perfetto): one complete
  // event per span, the run id as the thread lane.
  bool WriteChrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.run
          << ", \"ts\": " << JsonNumber(s.start_s * 1e6)
          << ", \"dur\": " << JsonNumber((s.end_s - s.start_s) * 1e6)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"run\": " << s.run << ", \"cpu_s\": " << JsonNumber(s.cpu_s)
          << ", \"peak_rss_mb\": " << JsonNumber(s.peak_rss_mb)
          << ", \"self_s\": " << JsonNumber(SelfSeconds(s))
          << ", \"queries\": " << s.queries << "}}";
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_;
  MemoryProbe memory_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // ids of the calls currently running, outermost first
};

// Timing decorator over the session's provider: every batch the miner
// issues becomes a span, forwarded to the uncounted entry point so the
// provider's own counters tick once, exactly as without the decorator.
class TimingCountProvider : public CountProvider {
 public:
  TimingCountProvider(const CountProvider& inner, const Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  uint64_t num_baskets() const override { return inner_.num_baskets(); }
  const std::vector<Span>& batches() const { return batches_; }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override {
    uint64_t count = 0;
    inner_.CountAllPresentBatchUncounted(std::span<const Itemset>(&s, 1),
                                         std::span<uint64_t>(&count, 1));
    return count;
  }

  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override {
    Span span;
    span.name = "itemset.count_batch";
    span.queries = queries.size();
    const double cpu0 = ProcessCpuSeconds();
    span.start_s = tracer_.Now();
    inner_.CountAllPresentBatchUncounted(queries, counts, pool);
    span.end_s = tracer_.Now();
    span.cpu_s = ProcessCpuSeconds() - cpu0;
    batches_.push_back(span);
  }

 private:
  const CountProvider& inner_;
  const Tracer& tracer_;
  // The miner issues batches from its coordinating thread only.
  mutable std::vector<Span> batches_;
};

struct TraceConfig {
  std::string dir;
  bool repair = false;
  int threads = 4;
  MinerOptions miner;
};

uint64_t FileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return file ? static_cast<uint64_t>(file.tellg()) : 0;
}

// The CLI's `mine` rendering: the rule table to stdout, one line per level,
// then WriteMiningResult for --out. Returns the bytes produced.
uint64_t WriteOutput(const MiningResult& result, const ItemDictionary& dict,
                     const std::string& out_path) {
  io::TablePrinter table({"itemset", "chi2", "p-value", "major dependence",
                          "interest"});
  for (const CorrelationRule& rule : result.significant) {
    table.AddRow({rule.itemset.ToString(),
                  io::FormatDouble(rule.chi2.statistic, 3),
                  io::FormatDouble(rule.chi2.p_value, 6),
                  FormatCellPattern(rule.itemset, rule.major_dependence.mask, &dict),
                  io::FormatDouble(rule.major_dependence.interest, 3)});
  }
  std::ostringstream stdout_text;
  table.Print(stdout_text);
  for (const LevelStats& level : result.levels) {
    stdout_text << "level " << level.level << ": |CAND| " << level.candidates
                << ", discards " << level.discards << ", |SIG| "
                << level.significant << ", |NOTSIG| " << level.not_significant
                << "\n";
  }
  CORRMINE_CHECK(io::WriteMiningResult(result, out_path).ok());
  return stdout_text.str().size() + FileBytes(out_path);
}

SessionOptions CliSessionOptions(int threads) {
  SessionOptions options;  // --provider bitmap, --shards 1, no prefix cache
  options.num_threads = threads;
  return options;
}

struct RunOutcome {
  double wall_s = 0.0;
  std::string serialized;
  std::vector<LevelStats> levels;
  uint64_t rules = 0;
  uint64_t memo_misses = 0;
  uint64_t output_bytes = 0;
  uint64_t input_bytes = 0;
};

// One pass of the CLI's call sequence. With `tracer` null the calls run
// bare (no spans, no decorator, no memory probe) — the overhead baseline.
RunOutcome RunSequence(const TraceConfig& config, Tracer* tracer, int run) {
  auto call = [&](const std::string& name, const std::function<void()>& body) {
    if (tracer == nullptr) {
      body();
      return -1;
    }
    return tracer->Call(run, name, body);
  };
  const std::string input = config.dir + (config.repair ? "/base.cmb" : "/input.cmb");
  const std::string out_path =
      config.dir + (tracer ? "/trace_traced.out" : "/trace_bare.out");

  RunOutcome outcome;
  outcome.input_bytes = FileBytes(input);
  const auto start = Clock::now();
  std::optional<ShardedTransactionDatabase> db;
  call("io.load", [&] {
    auto loaded = io::LoadTransactionFileSharded(input, 1);
    CORRMINE_CHECK(loaded.ok()) << loaded.status().ToString();
    db.emplace(std::move(*loaded));
  });
  std::optional<MiningSession> session;
  call("itemset.index_build", [&] {
    auto built = MiningSession::FromShardedDatabase(std::move(*db),
                                                    CliSessionOptions(config.threads));
    CORRMINE_CHECK(built.ok()) << built.status().ToString();
    session.emplace(std::move(*built));
  });

  // Like the CLI's locals, these outlive the output call, so their
  // destruction falls after the timed window.
  MiningResult result;
  std::optional<BorderState> state;
  std::optional<TransactionDatabase> delta;
  if (config.repair) {
    call("core.snapshot_load", [&] {
      auto loaded = LoadBorderState(config.dir + "/snapshot.cbs");
      CORRMINE_CHECK(loaded.ok()) << loaded.status().ToString();
      state.emplace(std::move(*loaded));
    });
    CORRMINE_CHECK(session->num_baskets() == state->num_baskets);
    call("core.append", [&] {
      call("io.delta_load", [&] {
        auto loaded = io::LoadTransactionFile(config.dir + "/delta.cmb");
        CORRMINE_CHECK(loaded.ok()) << loaded.status().ToString();
        delta.emplace(std::move(*loaded));
      });
      call("itemset.append_batch",
           [&] { CORRMINE_CHECK(session->AppendBatch(*delta).ok()); });
      call("core.apply_appended_chunk",
           [&] { CORRMINE_CHECK(ApplyAppendedChunk(&*state, *delta).ok()); });
    });
    const size_t memo_before = state->counts.size();
    call("core.repair", [&] {
      auto repaired = RepairBorder(*session, &*state);
      CORRMINE_CHECK(repaired.ok()) << repaired.status().ToString();
      result = std::move(*repaired);
    });
    outcome.memo_misses = state->counts.size() - memo_before;
  } else {
    MinerOptions options = config.miner;
    options.num_threads = session->num_threads();
    options.pool = session->pool();
    if (tracer == nullptr) {
      auto mined = MineCorrelations(session->provider(), session->num_items(), options);
      CORRMINE_CHECK(mined.ok()) << mined.status().ToString();
      result = std::move(*mined);
    } else {
      TimingCountProvider timed(session->provider(), *tracer);
      std::vector<std::pair<int, double>> level_ends;
      options.progress = [&](const MinerProgress& p) {
        level_ends.emplace_back(p.level, tracer->Now());
      };
      const int mine = call("core.mine", [&] {
        auto mined = MineCorrelations(timed, session->num_items(), options);
        CORRMINE_CHECK(mined.ok()) << mined.status().ToString();
        result = std::move(*mined);
      });
      // Level k spans the interval between the (k-1)th and kth heartbeats;
      // level 2's interval also holds the level-1 singleton batch.
      double level_start = tracer->spans()[mine].start_s;
      std::vector<int> level_ids;
      for (const auto& [level, end] : level_ends) {
        Span span;
        span.parent = mine;
        span.run = run;
        span.name = "core.level" + std::to_string(level);
        span.start_s = level_start;
        span.end_s = end;
        span.peak_rss_mb = -1;
        level_ids.push_back(tracer->Add(span));
        level_start = end;
      }
      for (Span batch : timed.batches()) {
        batch.run = run;
        batch.parent = mine;
        batch.peak_rss_mb = -1;
        for (int id : level_ids) {
          const Span& level = tracer->spans()[id];
          if (batch.start_s >= level.start_s && batch.start_s < level.end_s) {
            batch.parent = id;
          }
        }
        tracer->Add(batch);
      }
    }
  }
  call("io.output", [&] {
    outcome.output_bytes = WriteOutput(result, session->dictionary(), out_path);
  });
  outcome.wall_s = Seconds(start, Clock::now());
  outcome.serialized = io::SerializeMiningResult(result);
  outcome.levels = result.levels;
  outcome.rules = result.significant.size();
  return outcome;
}

int RunTrace(const FlagParser& flags) {
  TraceConfig config;
  config.dir = flags.GetString("dir", "");
  config.repair = flags.GetBool("repair", false);
  config.threads = static_cast<int>(flags.GetUint64("threads", 4).value());
  config.miner.support.min_count = flags.GetUint64("support-count", 3).value();
  config.miner.support.cell_fraction = flags.GetDouble("cell-fraction", 0.26).value();
  const double budget_s = flags.GetDouble("seconds", 10.0).value();
  const std::string trace_out = flags.GetString("trace-out", "");
  CORRMINE_CHECK(!config.dir.empty()) << "trace needs --dir";

  const auto epoch = Clock::now();
  Tracer tracer(epoch);
  std::vector<double> traced_wall, bare_wall, coverage;
  std::vector<std::vector<double>> per_run;  // metric rows, one per traced run
  std::vector<std::string> names;
  bool identical = true;
  std::string reference;
  int run = 0;
  // Traced and bare passes alternate, swapping which goes first each round,
  // so drift in machine load falls on both sides of trace_overhead.
  for (int round = 0; round < 2 || Seconds(epoch, Clock::now()) < budget_s; ++round) {
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (round % 2 == 0);
      if (!traced) {
        const RunOutcome bare = RunSequence(config, nullptr, -1);
        bare_wall.push_back(bare.wall_s);
        if (bare.serialized != reference && !reference.empty()) identical = false;
        if (reference.empty()) reference = bare.serialized;
        malloc_trim(0);
        continue;
      }
      const size_t first_span = tracer.spans().size();
      const RunOutcome out = RunSequence(config, &tracer, ++run);
      malloc_trim(0);
      if (reference.empty()) reference = out.serialized;
      if (out.serialized != reference) identical = false;
      traced_wall.push_back(out.wall_s);

      std::vector<std::pair<std::string, double>> m;
      auto span_total = [&](const std::string& name, double Span::*field) {
        double total = 0.0;
        for (size_t i = first_span; i < tracer.spans().size(); ++i) {
          const Span& s = tracer.spans()[i];
          if (s.name == name) {
            total += field == nullptr ? s.end_s - s.start_s : s.*field;
          }
        }
        return total;
      };
      auto wall = [&](const std::string& name) { return span_total(name, nullptr); };
      auto cpu = [&](const std::string& name) { return span_total(name, &Span::cpu_s); };
      auto peak = [&](const std::string& name) { return span_total(name, &Span::peak_rss_mb); };
      double top_level = 0.0;
      uint64_t batches = 0, queries = 0;
      for (size_t i = first_span; i < tracer.spans().size(); ++i) {
        const Span& s = tracer.spans()[i];
        if (s.parent == -1) top_level += s.end_s - s.start_s;
        if (s.name == "itemset.count_batch") {
          ++batches;
          queries += s.queries;
        }
      }
      coverage.push_back(top_level / out.wall_s);
      auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
      uint64_t candidates = 0, chi2_tests = 0;
      for (const LevelStats& level : out.levels) {
        candidates += level.candidates;
        chi2_tests += level.chi2_tests;
      }
      m.emplace_back("io.load_s", wall("io.load"));
      m.emplace_back("io.load_cpu_s", cpu("io.load"));
      m.emplace_back("io.load_mb_per_s", ratio(out.input_bytes / 1e6, wall("io.load")));
      m.emplace_back("io.load_peak_rss_mb", peak("io.load"));
      m.emplace_back("itemset.index_build_s", wall("itemset.index_build"));
      m.emplace_back("itemset.index_build_cpu_s", cpu("itemset.index_build"));
      m.emplace_back("itemset.index_peak_rss_mb", peak("itemset.index_build"));
      m.emplace_back("itemset.count_s", wall("itemset.count_batch"));
      m.emplace_back("itemset.count_cpu_s", cpu("itemset.count_batch"));
      m.emplace_back("itemset.count_batches", static_cast<double>(batches));
      m.emplace_back("itemset.count_queries", static_cast<double>(queries));
      m.emplace_back("itemset.queries_per_s", ratio(queries, wall("itemset.count_batch")));
      m.emplace_back("core.mine_s", wall("core.mine"));
      m.emplace_back("core.mine_cpu_s", cpu("core.mine"));
      m.emplace_back("core.mine_self_s",
                     std::max(0.0, wall("core.mine") - wall("itemset.count_batch")));
      m.emplace_back("core.mine_peak_rss_mb", peak("core.mine"));
      for (int level = 2; level <= 5; ++level) {
        const std::string key = "core.level" + std::to_string(level);
        m.emplace_back(key + "_s", wall(key));
        double useful = 0.0;
        for (const LevelStats& stats : out.levels) {
          if (stats.level == level) useful = ratio(stats.chi2_tests, stats.candidates);
        }
        m.emplace_back(key + "_useful_ratio", useful);
      }
      m.emplace_back("core.candidates", static_cast<double>(candidates));
      m.emplace_back("core.chi2_tests", static_cast<double>(chi2_tests));
      m.emplace_back("core.rules", static_cast<double>(out.rules));
      m.emplace_back("core.useful_ratio", ratio(chi2_tests, candidates));
      m.emplace_back("core.queries_per_candidate", ratio(queries, candidates));
      m.emplace_back("io.output_s", wall("io.output"));
      m.emplace_back("io.output_mb", out.output_bytes / 1e6);
      m.emplace_back("core.snapshot_load_s", wall("core.snapshot_load"));
      m.emplace_back("core.append_s", wall("core.append"));
      m.emplace_back("core.repair_s", wall("core.repair"));
      m.emplace_back("core.memo_misses", static_cast<double>(out.memo_misses));
      m.emplace_back("common.load_cpu_per_wall", ratio(cpu("io.load"), wall("io.load")));
      m.emplace_back("common.index_cpu_per_wall",
                     ratio(cpu("itemset.index_build"), wall("itemset.index_build")));
      m.emplace_back("common.count_cpu_per_wall",
                     ratio(cpu("itemset.count_batch"), wall("itemset.count_batch")));
      m.emplace_back("common.mine_cpu_per_wall", ratio(cpu("core.mine"), wall("core.mine")));
      m.emplace_back("common.repair_cpu_per_wall",
                     ratio(cpu("core.repair"), wall("core.repair")));
      if (names.empty()) {
        for (const auto& [name, value] : m) names.push_back(name);
      }
      std::vector<double> row;
      for (const auto& [name, value] : m) row.push_back(value);
      per_run.push_back(std::move(row));
    }
  }

  bool trace_written = true;
  if (!trace_out.empty()) trace_written = tracer.WriteChrome(trace_out);

  // Self time per span name, summed over traced runs.
  std::vector<std::pair<std::string, double>> self_times;
  for (const Span& s : tracer.spans()) {
    auto it = std::find_if(self_times.begin(), self_times.end(),
                           [&](const auto& e) { return e.first == s.name; });
    if (it == self_times.end()) {
      self_times.emplace_back(s.name, 0.0);
      it = self_times.end() - 1;
    }
    it->second += tracer.SelfSeconds(s) / static_cast<double>(per_run.size());
  }

  std::cout << "{\"metrics\": {";
  for (size_t k = 0; k < names.size(); ++k) {
    std::vector<double> column;
    for (const auto& row : per_run) column.push_back(row[k]);
    std::cout << (k ? ", " : "") << "\"" << names[k] << "\": " << JsonNumber(Median(column));
  }
  const double coverage_min =
      coverage.empty() ? 0.0 : *std::min_element(coverage.begin(), coverage.end());
  std::cout << ", \"trace_overhead\": "
            << JsonNumber(Median(traced_wall) / Median(bare_wall))
            << ", \"common.hwm_reset_ok\": " << (tracer.memory().hwm_reset_ok() ? 1 : 0)
            << "}, \"self_s\": {";
  for (size_t i = 0; i < self_times.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << self_times[i].first
              << "\": " << JsonNumber(self_times[i].second);
  }
  std::cout << "}, \"traced_runs\": " << per_run.size()
            << ", \"bare_runs\": " << bare_wall.size()
            << ", \"traced_wall_s\": " << JsonNumber(Median(traced_wall))
            << ", \"bare_wall_s\": " << JsonNumber(Median(bare_wall))
            << ", \"coverage_min\": " << JsonNumber(coverage_min)
            << ", \"decorator_identical\": " << (identical ? "true" : "false")
            << ", \"trace_written\": " << (trace_written ? "true" : "false")
            << ", \"spans\": " << tracer.spans().size() << "}" << std::endl;
  return 0;
}

int Main(int argc, const char* const* argv) {
  auto flags = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok() || flags->positional().empty()) {
    std::cerr << "usage: perfbench_harness prepare|check|trace [flags]\n";
    return 2;
  }
  const std::string& command = flags->positional()[0];
  if (command == "prepare") return RunPrepare(*flags);
  if (command == "check") return RunCheck(*flags);
  if (command == "trace") return RunTrace(*flags);
  std::cerr << "unknown command: " << command << "\n";
  return 2;
}

}  // namespace
}  // namespace corrmine::perfbench

int main(int argc, char** argv) { return corrmine::perfbench::Main(argc, argv); }
