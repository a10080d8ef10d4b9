#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "io/table_printer.h"
#include "io/transaction_io.h"
#include "test_util.h"

namespace corrmine::io {
namespace {

TEST(TransactionIoTest, ParsesIdsAndComments) {
  auto db = ParseTransactions("# header\n1 2 3\n\n0 2\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_baskets(), 3u);  // Blank line = empty basket.
  EXPECT_EQ(db->basket(0), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_TRUE(db->basket(1).empty());
  EXPECT_EQ(db->basket(2), (std::vector<ItemId>{0, 2}));
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
  EXPECT_EQ(db->basket(0), (std::vector<ItemId>{2, 7}));
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
    EXPECT_EQ(loaded->basket(i), db.basket(i));
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

}  // namespace
}  // namespace corrmine::io
