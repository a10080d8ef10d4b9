#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/binary_io.h"
#include "io/stream_reader.h"
#include "io/transaction_io.h"
#include "test_util.h"

namespace corrmine::io {
namespace {

TEST(BinaryIoTest, EncodeDecodeRoundTrip) {
  auto db = corrmine::testing::RandomIndependentDatabase(20, 500, 9);
  std::string bytes = EncodeBinaryTransactions(db);
  auto decoded = DecodeBinaryTransactions(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_baskets(), db.num_baskets());
  EXPECT_EQ(decoded->num_items(), db.num_items());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(decoded->basket(row), db.basket(row)) << "row " << row;
  }
}

TEST(BinaryIoTest, EmptyBasketsAndEmptyDatabase) {
  TransactionDatabase db(5);
  ASSERT_TRUE(db.AddBasket({}).ok());
  ASSERT_TRUE(db.AddBasket({4}).ok());
  ASSERT_TRUE(db.AddBasket({}).ok());
  auto decoded = DecodeBinaryTransactions(EncodeBinaryTransactions(db));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_baskets(), 3u);
  EXPECT_TRUE(decoded->basket(0).empty());
  EXPECT_EQ(decoded->basket(1), (std::vector<ItemId>{4}));

  TransactionDatabase empty(7);
  auto decoded_empty =
      DecodeBinaryTransactions(EncodeBinaryTransactions(empty));
  ASSERT_TRUE(decoded_empty.ok());
  EXPECT_EQ(decoded_empty->num_baskets(), 0u);
  EXPECT_EQ(decoded_empty->num_items(), 7u);
}

TEST(BinaryIoTest, CompactVersusText) {
  auto db = corrmine::testing::RandomIndependentDatabase(1000, 300, 3);
  std::string binary = EncodeBinaryTransactions(db);
  // Text encoding size estimate: write to a string via the text writer's
  // format (ids + separators ~ 4+ bytes per occurrence on this id range).
  size_t text_estimate = 0;
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    for (ItemId item : db.basket(row)) {
      text_estimate += std::to_string(item).size() + 1;
    }
    ++text_estimate;
  }
  EXPECT_LT(binary.size(), text_estimate / 2)
      << "binary " << binary.size() << " vs text ~" << text_estimate;
}

TEST(BinaryIoTest, FileRoundTripAndSniffing) {
  auto db = corrmine::testing::RandomIndependentDatabase(10, 100, 5);
  std::string path = ::testing::TempDir() + "/corrmine_binary_test.bin";
  ASSERT_TRUE(WriteBinaryTransactionFile(db, path).ok());
  EXPECT_TRUE(LooksLikeBinaryTransactionFile(path));
  auto loaded = ReadBinaryTransactionFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_baskets(), db.num_baskets());
  std::remove(path.c_str());

  std::string text_path = ::testing::TempDir() + "/corrmine_text_test.txt";
  ASSERT_TRUE(WriteTransactionFile(db, text_path).ok());
  EXPECT_FALSE(LooksLikeBinaryTransactionFile(text_path));
  std::remove(text_path.c_str());
  EXPECT_FALSE(LooksLikeBinaryTransactionFile("/nonexistent/file.bin"));
}

TEST(BinaryIoTest, CorruptionDetected) {
  auto db = corrmine::testing::RandomIndependentDatabase(10, 50, 1);
  std::string bytes = EncodeBinaryTransactions(db);
  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_TRUE(DecodeBinaryTransactions(bad_magic).status().IsCorruption());
  // Truncation at any point must error, not crash or mis-decode silently.
  for (size_t cut : {size_t{2}, size_t{5}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto decoded = DecodeBinaryTransactions(bytes.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
  // Trailing garbage.
  EXPECT_TRUE(
      DecodeBinaryTransactions(bytes + "x").status().IsCorruption());
}

TEST(BinaryIoTest, MaxItemIdsRoundTrip) {
  // Item ids at the top of a large id space stress the varint coder's
  // multi-byte path (deltas spanning several LEB128 groups).
  const ItemId num_items = ItemId{1} << 20;
  TransactionDatabase db(num_items);
  ASSERT_TRUE(db.AddBasket({0, num_items - 1}).ok());
  ASSERT_TRUE(db.AddBasket({num_items - 1}).ok());
  ASSERT_TRUE(db.AddBasket({}).ok());
  ASSERT_TRUE(db.AddBasket({num_items / 2, num_items - 2, num_items - 1})
                  .ok());
  auto decoded = DecodeBinaryTransactions(EncodeBinaryTransactions(db));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_items(), num_items);
  ASSERT_EQ(decoded->num_baskets(), db.num_baskets());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(decoded->basket(row), db.basket(row)) << "row " << row;
  }
}

TEST(BinaryIoTest, TruncatedFileReturnsStatusNotCrash) {
  auto db = corrmine::testing::RandomIndependentDatabase(15, 200, 23);
  std::string bytes = EncodeBinaryTransactions(db);
  std::string path = ::testing::TempDir() + "/corrmine_truncated.bin";
  for (size_t cut : {size_t{1}, size_t{3}, bytes.size() / 3,
                     bytes.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes.substr(0, cut);
    }
    auto loaded = ReadBinaryTransactionFile(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_TRUE(loaded.status().IsCorruption()) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, StreamingDecodeMatchesMaterialized) {
  auto db = corrmine::testing::RandomIndependentDatabase(20, 300, 31);
  std::string bytes = EncodeBinaryTransactions(db);

  ItemId num_items = 0;
  std::vector<std::vector<ItemId>> streamed;
  auto status = DecodeBinaryTransactionsInto(
      bytes, &num_items, [&](std::vector<ItemId> basket) -> Status {
        streamed.push_back(std::move(basket));
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(num_items, db.num_items());
  ASSERT_EQ(streamed.size(), db.num_baskets());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(streamed[row], db.basket(row)) << "row " << row;
  }

  // A sink error aborts the decode and propagates unchanged.
  size_t seen = 0;
  auto aborted = DecodeBinaryTransactionsInto(
      bytes, &num_items, [&](std::vector<ItemId>) -> Status {
        if (++seen == 3) return Status::Internal("sink full");
        return Status::OK();
      });
  EXPECT_FALSE(aborted.ok());
  EXPECT_EQ(seen, 3u);
}

TEST(BinaryIoTest, RejectsOutOfRangeItems) {
  // Hand-craft: magic, num_items=2, num_baskets=1, size=1, delta=7 (>= 2).
  std::string bytes = "CMB1";
  bytes += static_cast<char>(2);
  bytes += static_cast<char>(1);
  bytes += static_cast<char>(1);
  bytes += static_cast<char>(7);
  EXPECT_TRUE(DecodeBinaryTransactions(bytes).status().IsCorruption());
}

// A small `value` (< 128) spread over 11 bytes by continuation bits: the
// 10th byte carries a continuation bit, so the encoding runs past bit 63.
// A reader that only bounds the decoded value accepts it.
std::string OverlongVarint(uint8_t value) {
  std::string bytes(1, static_cast<char>(0x80 | value));
  bytes.append(9, static_cast<char>(0x80));
  bytes += '\0';
  return bytes;
}

TEST(BinaryIoTest, Uint64MaxVarintRoundTrips) {
  std::string bytes;
  AppendVarint(&bytes, UINT64_MAX);
  ASSERT_EQ(bytes.size(), 10u);
  size_t pos = 0;
  auto value = ReadVarint(bytes, &pos);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, UINT64_MAX);
  EXPECT_EQ(pos, bytes.size());
  // A 10th byte above 1 would need bits past 63.
  bytes.back() = static_cast<char>(0x02);
  pos = 0;
  EXPECT_TRUE(ReadVarint(bytes, &pos).status().IsCorruption());
  // 80 x9, 81, 01 would need a shift by 70.
  std::string shift70(9, static_cast<char>(0x80));
  shift70 += "\x81\x01";
  pos = 0;
  EXPECT_TRUE(ReadVarint(shift70, &pos).status().IsCorruption());
}

TEST(BinaryIoTest, OverlongVarintInHeaderIsCorruption) {
  // num_items = 2 (overlong), num_baskets = 0: valid but for the varint.
  const std::string items_overlong = "CMB1" + OverlongVarint(2) + '\0';
  EXPECT_TRUE(
      DecodeBinaryTransactions(items_overlong).status().IsCorruption());
  const std::string baskets_overlong = "CMB1\x02" + OverlongVarint(0);
  EXPECT_TRUE(
      DecodeBinaryTransactions(baskets_overlong).status().IsCorruption());
}

TEST(BinaryIoTest, OverlongVarintInBasketIsCorruption) {
  // num_items = 2, num_baskets = 1, then one basket {1} with either its
  // size or its item delta overlong.
  const std::string size_overlong =
      "CMB1\x02\x01" + OverlongVarint(1) + '\x01';
  EXPECT_TRUE(
      DecodeBinaryTransactions(size_overlong).status().IsCorruption());
  const std::string delta_overlong = "CMB1\x02\x01\x01" + OverlongVarint(1);
  EXPECT_TRUE(
      DecodeBinaryTransactions(delta_overlong).status().IsCorruption());
}

TEST(BinaryIoTest, StreamingReaderRejectsHighBitsInTenthByte) {
  // The out-of-core spill pass reads CMB1 through its own buffered reader.
  // Here the delta's 10th byte is 2: bit 64, which a uint64 cannot hold.
  std::string delta(1, static_cast<char>(0x81));
  delta.append(8, static_cast<char>(0x80));
  delta += '\x02';
  const std::string path = ::testing::TempDir() + "/corrmine_overlong.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "CMB1\x02\x01\x01" << delta;
  }
  ItemId num_items = 0;
  Status streamed = StreamTransactionFile(
      path, &num_items, [](std::vector<ItemId>) { return Status::OK(); });
  EXPECT_TRUE(streamed.IsCorruption()) << streamed.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corrmine::io
