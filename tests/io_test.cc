#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "core/interest.h"
#include "io/result_io.h"
#include "io/table_printer.h"
#include "io/transaction_io.h"
#include "test_util.h"

namespace corrmine::io {
namespace {

using corrmine::testing::Row;

TEST(TransactionIoTest, ParsesIdsAndComments) {
  auto db = ParseTransactions("# header\n1 2 3\n\n0 2\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_baskets(), 3u);  // Blank line = empty basket.
  EXPECT_EQ(Row(*db, 0), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_TRUE(db->basket(1).empty());
  EXPECT_EQ(Row(*db, 2), (std::vector<ItemId>{0, 2}));
  EXPECT_EQ(db->num_items(), 4u);
}

TEST(TransactionIoTest, HintExpandsItemSpace) {
  auto db = ParseTransactions("0 1\n", /*num_items_hint=*/10);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_items(), 10u);
}

TEST(TransactionIoTest, UnsortedBasketSizesItemSpaceByItsMax) {
  // The item space widens to each basket's largest id, not its last one.
  auto db = ParseTransactions("7 2\n1\n");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->num_items(), 8u);
  EXPECT_EQ(Row(*db, 0), (std::vector<ItemId>{2, 7}));
  auto empty = ParseTransactions("# only a comment\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_items(), 1u);
}

TEST(TransactionIoTest, RejectsGarbage) {
  EXPECT_TRUE(ParseTransactions("1 two 3\n").status().IsCorruption());
  EXPECT_TRUE(ParseTransactions("99999999999\n").status().IsOutOfRange());
  // The item space must hold id + 1, so 2^32-1 is not an id.
  EXPECT_TRUE(ParseTransactions("4294967295\n").status().IsOutOfRange());
  // A bad later line fails before the item space is sized for an early
  // huge id (32 GiB of counts here).
  EXPECT_TRUE(ParseTransactions("4000000000\n1 x\n").status().IsCorruption());
}

TEST(TransactionIoTest, FileRoundTrip) {
  auto db = corrmine::testing::RandomIndependentDatabase(6, 50, 9);
  std::string path = ::testing::TempDir() + "/corrmine_io_test.txt";
  ASSERT_TRUE(WriteTransactionFile(db, path).ok());
  auto loaded = LoadTransactionFile(path, db.num_items());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_baskets(), db.num_baskets());
  for (size_t i = 0; i < db.num_baskets(); ++i) {
    EXPECT_EQ(Row(*loaded, i), Row(db, i));
  }
  std::remove(path.c_str());
}

TEST(TransactionIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      LoadTransactionFile("/nonexistent/path/x.txt").status().IsIOError());
}

TEST(TransactionIoTest, NamedTransactions) {
  auto db = ParseNamedTransactions("tea coffee\ncoffee doughnut\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_baskets(), 2u);
  EXPECT_EQ(db->num_items(), 3u);
  auto coffee = db->dictionary().Get("coffee");
  ASSERT_TRUE(coffee.ok());
  EXPECT_EQ(db->ItemCount(*coffee), 2u);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1.5"});
  table.AddRow({"b", "200"});
  std::string out = table.Render();
  // Header first, underline second.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Numeric cells right-aligned: "200" ends at the same column as "1.5".
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < out.size()) {
    size_t eol = out.find('\n', pos);
    lines.push_back(out.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[2].size(), lines[3].size());
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatPercent(0.166, 1), "16.6");
  EXPECT_EQ(FormatPercent(1.0, 0), "100");
}

// The fixed rendering of 1e300 at precision 3: 305 characters.
const char kHuge1e300[] =
    "100000000000000005250476025520442024870446858110815915491585411551180"
    "245798890819578637137508044786404370444383288387817694252323536043057"
    "564479218478670698284838720092657580373783023379478809005936895323497"
    "079994508111903896764088007465274278014249457925878882005684283811566"
    "9472196386865459400540160.000";

// FormatDouble is printf("%.*f"): non-finite values print as glibc spells
// them, and a value whose fixed rendering is long prints in full.
TEST(TablePrinterTest, FormatDoubleSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(FormatDouble(inf, 3), "inf");
  EXPECT_EQ(FormatDouble(-inf, 3), "-inf");
  EXPECT_EQ(FormatDouble(nan, 3), "nan");
  EXPECT_EQ(FormatDouble(std::copysign(nan, -1.0), 3), "-nan");
  EXPECT_EQ(FormatDouble(-0.0, 3), "-0.000");
  const std::string huge = FormatDouble(1e300, 3);
  EXPECT_EQ(huge.size(), 305u);
  EXPECT_EQ(huge, kHuge1e300);
  // The longest "%.6f" any double has.
  const std::string lowest =
      FormatDouble(std::numeric_limits<double>::lowest(), 6);
  EXPECT_EQ(lowest.size(), 317u);
  EXPECT_EQ(lowest.rfind("-17976931348623157", 0), 0u);
  EXPECT_EQ(lowest.substr(lowest.size() - 7), ".000000");
}

// --- The streaming rule writers (io/result_io.h) ---

// `mine`'s rule table as TablePrinter renders it: the reference
// WriteRuleTable must match byte for byte.
std::string ReferenceRuleTable(const MiningResult& result,
                               const ItemDictionary* dict) {
  TablePrinter table(
      {"itemset", "chi2", "p-value", "major dependence", "interest"});
  for (const CorrelationRule& rule : result.significant) {
    table.AddRow({rule.itemset.ToString(),
                  FormatDouble(rule.chi2.statistic, 3),
                  FormatDouble(rule.chi2.p_value, 6),
                  FormatCellPattern(rule.itemset, rule.major_dependence.mask,
                                    dict),
                  FormatDouble(rule.major_dependence.interest, 3)});
  }
  return table.Render();
}

std::string RuleTable(const MiningResult& result,
                      const ItemDictionary* dict) {
  std::ostringstream os;
  const uint64_t bytes = WriteRuleTable(result, dict, os);
  EXPECT_EQ(bytes, os.str().size());
  return os.str();
}

// The --out format as printf defines it.
std::string ReferenceResultFile(const MiningResult& result) {
  std::string out = "# corrmine result v1\n";
  char buf[512];
  for (const LevelStats& level : result.levels) {
    std::snprintf(buf, sizeof(buf),
                  "level %d %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 "\n",
                  level.level, level.possible_itemsets, level.candidates,
                  level.discards, level.significant, level.not_significant);
    out += buf;
  }
  for (const CorrelationRule& rule : result.significant) {
    std::snprintf(buf, sizeof(buf), "rule %.17g %.17g %" PRId64 " %u %.17g",
                  rule.chi2.statistic, rule.chi2.p_value, rule.chi2.dof,
                  rule.major_dependence.mask, rule.major_dependence.interest);
    out += buf;
    for (ItemId item : rule.itemset) out += " " + std::to_string(item);
    out += "\n";
  }
  return out;
}

CorrelationRule MakeRule(Itemset itemset, double chi2, double p_value,
                         uint32_t mask, double interest) {
  CorrelationRule rule;
  rule.itemset = std::move(itemset);
  rule.chi2.statistic = chi2;
  rule.chi2.p_value = p_value;
  rule.chi2.dof = 1;
  rule.major_dependence.mask = mask;
  rule.major_dependence.interest = interest;
  return rule;
}

TEST(RuleTableTest, EmptyResultIsHeaderAndDashRule) {
  const std::string expected =
      "itemset  chi2  p-value  major dependence  interest\n" +
      std::string(50, '-') + "\n";
  EXPECT_EQ(RuleTable(MiningResult{}, nullptr), expected);
  EXPECT_EQ(ReferenceRuleTable(MiningResult{}, nullptr), expected);
}

// Non-finite values and -0.0 print as FormatDouble prints them, and, since
// strtod reads "inf" and "nan" as numbers, stay right-aligned.
TEST(RuleTableTest, SpecialValuesMatchFormatDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MiningResult result;
  result.significant.push_back(MakeRule({3, 12}, inf, nan, 0b01, -0.0));
  EXPECT_EQ(RuleTable(result, nullptr),
            "itemset  chi2  p-value  major dependence  interest\n" +
                std::string(50, '-') +
                "\n{3, 12}   inf      nan  {i3, !i12}          -0.000\n");
  for (double value : {inf, -inf, nan, std::copysign(nan, -1.0), -0.0}) {
    result.significant.push_back(MakeRule({1, 5}, value, value, 0b10, value));
    EXPECT_EQ(RuleTable(result, nullptr), ReferenceRuleTable(result, nullptr))
        << value;
  }
}

// The writer prints every digit, up to the longest "%.6f" any double has
// (-DBL_MAX: 317 chars).
TEST(RuleTableTest, HugeValuesPrintInFull) {
  const std::string huge = kHuge1e300;
  ASSERT_EQ(huge.size(), 305u);
  MiningResult result;
  result.significant.push_back(MakeRule({1, 2}, 1e300, 0.5, 0b11, 2.0));
  EXPECT_NE(RuleTable(result, nullptr)
                .find("{1, 2}   " + huge + "  0.500000  {i1, i2}"),
            std::string::npos);
  EXPECT_EQ(RuleTable(result, nullptr), ReferenceRuleTable(result, nullptr));

  std::vector<char> longest(512);
  const double lowest = std::numeric_limits<double>::lowest();
  ASSERT_EQ(std::snprintf(longest.data(), longest.size(), "%.6f", lowest),
            317);
  result.significant[0].chi2.p_value = lowest;
  EXPECT_NE(RuleTable(result, nullptr)
                .find("  " + std::string(longest.data()) + "  {i1, i2}"),
            std::string::npos);
  EXPECT_EQ(RuleTable(result, nullptr), ReferenceRuleTable(result, nullptr));
}

// A name longer than the writer's 64 KiB buffer is written straight
// through, between buffered cells.
TEST(RuleTableTest, CellsLongerThanTheBuffer) {
  ItemDictionary dict;
  dict.GetOrAdd(std::string(100000, 'x'));
  dict.GetOrAdd("y");
  MiningResult result;
  result.significant.push_back(MakeRule({0, 1}, 12.5, 0.001, 0b01, 3.25));
  result.significant.push_back(MakeRule({1, 7}, 4.0, 0.04, 0b10, 0.5));
  EXPECT_EQ(RuleTable(result, &dict), ReferenceRuleTable(result, &dict));
}

// Random results, with and without a dictionary that names only some ids,
// large enough that the writer flushes its buffer many times.
TEST(RuleTableTest, MatchesTablePrinterOnRandomResults) {
  std::mt19937_64 rng(1997);
  ItemDictionary dict;
  for (int i = 0; i < 40; ++i) {
    dict.GetOrAdd("w" + std::to_string(i) +
                  std::string(rng() % 12, static_cast<char>('a' + i % 26)));
  }
  auto value = [&]() {
    switch (rng() % 6) {
      case 0:
        return 0.0;
      case 1:
        return std::ldexp(static_cast<double>(rng() % 1000), -20);
      case 2:
        return -static_cast<double>(rng() % 100000) / 7.0;
      case 3:
        return 0.0005;  // a "%.3f" tie in decimal, not in binary
      default:
        return std::exp(static_cast<double>(rng() % 60) - 20.0) *
               static_cast<double>(rng() % 1000) / 999.0;
    }
  };
  for (int trial = 0; trial < 20; ++trial) {
    MiningResult result;
    const size_t rules = trial == 0 ? 4000 : rng() % 300;
    for (size_t r = 0; r < rules; ++r) {
      const size_t k = 2 + rng() % 4;
      std::vector<ItemId> items;
      while (items.size() < k) {
        const ItemId item = static_cast<ItemId>(
            rng() % 2 == 0 ? rng() % 80 : rng() % 4000000000u);
        if (std::find(items.begin(), items.end(), item) == items.end()) {
          items.push_back(item);
        }
      }
      result.significant.push_back(
          MakeRule(Itemset(std::move(items)), value(), value(),
                   static_cast<uint32_t>(rng() % (1u << k)), value()));
    }
    EXPECT_EQ(RuleTable(result, nullptr), ReferenceRuleTable(result, nullptr))
        << "trial " << trial;
    EXPECT_EQ(RuleTable(result, &dict), ReferenceRuleTable(result, &dict))
        << "trial " << trial;
  }
}

// The --out writer is printf's "%.17g" for every double: random bit
// patterns cover subnormals, huge magnitudes, infinities and NaNs.
TEST(ResultWriterTest, MatchesPrintfOnEveryKindOfDouble) {
  std::mt19937_64 rng(4242);
  MiningResult result;
  LevelStats level;
  level.level = 2;
  level.possible_itemsets = UINT64_MAX;
  level.candidates = 40;
  level.not_significant = 25;
  result.levels.push_back(level);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest(),
                             1e300,
                             0.1};
  for (double special : specials) {
    result.significant.push_back(
        MakeRule({0, 4294967295u}, special, special, 0b11, special));
  }
  for (int r = 0; r < 20000; ++r) {
    auto bits = [&] { return std::bit_cast<double>(rng()); };
    CorrelationRule rule = MakeRule({static_cast<ItemId>(r), 70000000u},
                                    bits(), bits(), UINT32_MAX, bits());
    rule.chi2.dof = r % 2 == 0 ? -r : r;
    result.significant.push_back(std::move(rule));
  }
  const std::string expected = ReferenceResultFile(result);
  EXPECT_EQ(SerializeMiningResult(result), expected);
  std::ostringstream os;
  EXPECT_EQ(WriteMiningResult(result, os), expected.size());
  EXPECT_EQ(os.str(), expected);
}

}  // namespace
}  // namespace corrmine::io
