#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/rng.h"
#include "io/binary_io.h"
#include "io/chunked_io.h"
#include "io/format_detect.h"
#include "io/transaction_io.h"
#include "test_util.h"

namespace corrmine::io {
namespace {

using corrmine::testing::Row;

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteStringToFile(bytes, path).ok());
  return path;
}

Status StreamAll(const std::string& path, ItemId* num_items) {
  return StreamTransactionFile(
      path, num_items, [](std::vector<ItemId>) { return Status::OK(); });
}

/// Every reader of a transaction file must reject `bytes` with exactly
/// `expected` (a Corruption status rendered by ToString): the streaming
/// decoder, the chunk walker, and the morsel loader inline and at 4 threads.
void ExpectRejectedEverywhere(const std::string& bytes,
                              const std::string& expected) {
  ThreadPool pool(3);
  EXPECT_EQ(DecodeBinaryTransactions(bytes).status().ToString(), expected);
  EXPECT_EQ(DecodeBinaryTransactions(bytes, &pool).status().ToString(),
            expected);
  EXPECT_EQ(ListTransactionChunks(bytes).status().ToString(), expected);
  const std::string path = WriteTempFile("corrmine_rejected.bin", bytes);
  EXPECT_EQ(LoadTransactionFile(path).status().ToString(), expected);
  EXPECT_EQ(LoadTransactionFile(path, 0, &pool).status().ToString(),
            expected);
  ItemId num_items = 0;
  EXPECT_EQ(StreamAll(path, &num_items).ToString(), expected);
  std::remove(path.c_str());
}

/// Three CMB1 segments whose item spaces widen and then narrow (40, 5000,
/// 300), so ids take one or two varint bytes. Each segment spans several
/// decode morsels of 2048 baskets, the middle one exactly one. `wide` adds a
/// fourth segment over 2^20 items: more items than ids in the file, where
/// the loader counts items in one pass over the ids instead of per slot.
std::string RandomChunkedBytes(uint64_t seed, bool wide = false) {
  datagen::Rng rng(seed);
  std::string bytes;
  std::vector<std::pair<ItemId, size_t>> shapes = {
      {40, 4500}, {5000, 2048}, {300, 5001}};
  if (wide) shapes.emplace_back(ItemId{1} << 20, 3000);
  for (const auto& [num_items, num_baskets] : shapes) {
    TransactionDatabase segment(num_items);
    for (size_t b = 0; b < num_baskets; ++b) {
      std::vector<ItemId> basket(rng.NextBelow(13));
      for (ItemId& item : basket) {
        item = static_cast<ItemId>(rng.NextBelow(num_items));
      }
      EXPECT_TRUE(segment.AddBasket(std::move(basket)).ok());
    }
    bytes += EncodeBinaryTransactions(segment);
  }
  return bytes;
}

/// A pool for `threads` participants (the caller is one); none for 1.
std::unique_ptr<ThreadPool> PoolFor(int threads) {
  return threads > 1 ? std::make_unique<ThreadPool>(threads - 1) : nullptr;
}

TEST(BinaryIoTest, EncodeDecodeRoundTrip) {
  auto db = corrmine::testing::RandomIndependentDatabase(20, 500, 9);
  std::string bytes = EncodeBinaryTransactions(db);
  auto decoded = DecodeBinaryTransactions(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_baskets(), db.num_baskets());
  EXPECT_EQ(decoded->num_items(), db.num_items());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(Row(*decoded, row), Row(db, row)) << "row " << row;
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
  EXPECT_EQ(Row(*decoded, 1), (std::vector<ItemId>{4}));

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
  EXPECT_EQ(*DetectTransactionFileFormat(path), TransactionFileFormat::kBinary);
  auto loaded = LoadTransactionFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_baskets(), db.num_baskets());
  std::remove(path.c_str());

  std::string text_path = ::testing::TempDir() + "/corrmine_text_test.txt";
  ASSERT_TRUE(WriteTransactionFile(db, text_path).ok());
  EXPECT_EQ(*DetectTransactionFileFormat(text_path),
            TransactionFileFormat::kText);
  std::remove(text_path.c_str());
  EXPECT_FALSE(DetectTransactionFileFormat("/nonexistent/file.bin").ok());
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
    EXPECT_EQ(Row(*decoded, row), Row(db, row)) << "row " << row;
  }
}

TEST(BinaryIoTest, TruncatedFileReturnsStatusNotCrash) {
  auto db = corrmine::testing::RandomIndependentDatabase(15, 200, 23);
  std::string bytes = EncodeBinaryTransactions(db);
  for (size_t cut : {size_t{1}, size_t{3}, size_t{4}, size_t{5},
                     bytes.size() / 3, bytes.size() - 1}) {
    const std::string path =
        WriteTempFile("corrmine_truncated.bin", bytes.substr(0, cut));
    auto loaded = LoadTransactionFile(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_TRUE(loaded.status().IsCorruption()) << "cut at " << cut;
    ItemId num_items = 0;
    EXPECT_TRUE(StreamAll(path, &num_items).IsCorruption()) << "cut at " << cut;
    std::remove(path.c_str());
  }
}

TEST(BinaryIoTest, StreamingDecodeMatchesMaterialized) {
  auto db = corrmine::testing::RandomIndependentDatabase(20, 300, 31);
  const std::string path =
      WriteTempFile("corrmine_streamed.bin", EncodeBinaryTransactions(db));

  ItemId num_items = 0;
  uint64_t consumed = 0;
  std::vector<std::vector<ItemId>> streamed;
  auto status = StreamTransactionFile(
      path, &num_items,
      [&](std::vector<ItemId> basket) -> Status {
        streamed.push_back(std::move(basket));
        return Status::OK();
      },
      &consumed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(num_items, db.num_items());
  EXPECT_EQ(consumed, EncodeBinaryTransactions(db).size());
  ASSERT_EQ(streamed.size(), db.num_baskets());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(streamed[row], Row(db, row)) << "row " << row;
  }

  // A sink error aborts the stream and propagates unchanged.
  size_t seen = 0;
  auto aborted = StreamTransactionFile(
      path, &num_items, [&](std::vector<ItemId>) -> Status {
        if (++seen == 3) return Status::Internal("sink full");
        return Status::OK();
      });
  EXPECT_EQ(aborted.ToString(), "Internal: sink full");
  EXPECT_EQ(seen, 3u);
  std::remove(path.c_str());
}

// The morsel loader against the streaming decoder, which shares only the
// record rules with it: same rows, item counts and item space at 1, 2 and 4
// threads, from a file and from memory.
TEST(BinaryIoTest, ParallelLoadMatchesStreamingDecoder) {
  for (const uint64_t seed : {1, 2, 3, 4}) {
    const bool wide = seed == 4;
    const std::string bytes = RandomChunkedBytes(seed, wide);
    const std::string path = WriteTempFile("corrmine_parallel.bin", bytes);
    ItemId streamed_items = 0;
    std::vector<std::vector<ItemId>> streamed;
    ASSERT_TRUE(StreamTransactionFile(path, &streamed_items,
                                      [&](std::vector<ItemId> basket) {
                                        streamed.push_back(std::move(basket));
                                        return Status::OK();
                                      })
                    .ok());
    ASSERT_EQ(streamed_items, wide ? ItemId{1} << 20 : 5000u);
    std::vector<uint64_t> counts(streamed_items, 0);
    for (const std::vector<ItemId>& row : streamed) {
      for (const ItemId item : row) ++counts[item];
    }

    for (const int threads : {1, 2, 4}) {
      std::unique_ptr<ThreadPool> pool = PoolFor(threads);
      auto loaded = LoadTransactionFile(path, 0, pool.get());
      auto decoded = DecodeBinaryTransactions(bytes, pool.get());
      for (auto* db : {&loaded, &decoded}) {
        ASSERT_TRUE(db->ok()) << db->status().ToString();
        const TransactionDatabase& rows = **db;
        EXPECT_EQ(rows.num_items(), streamed_items);
        ASSERT_EQ(rows.num_baskets(), streamed.size());
        for (size_t row = 0; row < streamed.size(); ++row) {
          ASSERT_EQ(Row(rows, row), streamed[row])
              << "seed " << seed << " threads " << threads << " row " << row;
        }
        for (ItemId item = 0; item < streamed_items; ++item) {
          ASSERT_EQ(rows.ItemCount(item), counts[item]) << "item " << item;
        }
      }
    }
    std::remove(path.c_str());
  }
}

// Corrupt bytes anywhere — in a header, mid-morsel, in the last morsel, in a
// later segment, one byte or two — and every reader, the 4-thread loader
// included, must give the streaming decoder's verdict: its exact Status, or
// the same rows when the change still decodes.
TEST(BinaryIoTest, CorruptBytesGetTheStreamingVerdictAtFourThreads) {
  const std::string bytes = RandomChunkedBytes(7);
  auto chunks = ListTransactionChunks(bytes);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  ASSERT_EQ(chunks->size(), 3u);
  datagen::Rng rng(11);
  std::vector<std::vector<size_t>> edits = {
      {(*chunks)[1].offset}, {(*chunks)[2].offset + 4}, {bytes.size() - 1}};
  for (int i = 0; i < 24; ++i) edits.push_back({rng.NextBelow(bytes.size())});
  for (int i = 0; i < 12; ++i) {
    edits.push_back({bytes.size() - 1 - rng.NextBelow(2000)});
  }
  for (int i = 0; i < 12; ++i) {
    edits.push_back(
        {rng.NextBelow(bytes.size()), rng.NextBelow(bytes.size())});
  }
  ThreadPool pool(3);
  const std::string path = ::testing::TempDir() + "/corrmine_flipped.bin";
  size_t rejected = 0;
  for (size_t e = 0; e < edits.size(); ++e) {
    std::string corrupt = bytes;
    for (const size_t at : edits[e]) {
      // Alternate a zero byte (a repeated item when it lands on a delta)
      // with a random flip.
      corrupt[at] = e % 2 == 0 ? '\0'
                               : static_cast<char>(corrupt[at] ^
                                                   (1 + rng.NextBelow(255)));
    }
    ASSERT_TRUE(WriteStringToFile(corrupt, path).ok());
    ItemId num_items = 0;
    std::vector<std::vector<ItemId>> streamed;
    const Status reference = StreamTransactionFile(
        path, &num_items, [&](std::vector<ItemId> basket) {
          streamed.push_back(std::move(basket));
          return Status::OK();
        });
    if (!reference.ok()) {
      ++rejected;
      ExpectRejectedEverywhere(corrupt, reference.ToString());
      continue;
    }
    auto loaded = LoadTransactionFile(path, 0, &pool);
    ASSERT_TRUE(loaded.ok()) << "edit " << e << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->num_items(), num_items);
    ASSERT_EQ(loaded->num_baskets(), streamed.size());
    for (size_t row = 0; row < streamed.size(); ++row) {
      ASSERT_EQ(Row(*loaded, row), streamed[row]) << "edit " << e;
    }
  }
  std::remove(path.c_str());
  EXPECT_GE(rejected, edits.size() / 2);
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

TEST(BinaryIoTest, WrappingItemDeltaIsCorruption) {
  // num_items = 10, one basket of two deltas, 5 then 2^64-3: unchecked
  // uint64 addition wraps to id 2, which is in range and would then be
  // sorted silently in front of 5.
  std::string bytes = "CMB1\x0a\x01\x02\x05";
  AppendVarint(&bytes, UINT64_MAX - 2);
  ExpectRejectedEverywhere(bytes, "Corruption: item id out of range");
  // The largest delta that still fits is accepted: 5 + 4 = 9.
  std::string fits = "CMB1\x0a\x01\x02\x05\x04";
  auto decoded = DecodeBinaryTransactions(fits);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Row(*decoded, 0), (std::vector<ItemId>{5, 9}));
  fits.back() = '\x05';
  ExpectRejectedEverywhere(fits, "Corruption: item id out of range");
}

TEST(BinaryIoTest, HugeBasketSizeIsNotReserved) {
  // num_items = 2^32-1, one basket claiming 2^32-1 ids, then EOF. A reader
  // that reserves the claimed size asks for 16 GiB before the first id.
  std::string bytes = "CMB1";
  AppendVarint(&bytes, UINT32_MAX);
  AppendVarint(&bytes, 1);
  AppendVarint(&bytes, UINT32_MAX);
  ExpectRejectedEverywhere(bytes, "Corruption: truncated varint");
}

TEST(BinaryIoTest, CorruptTailFailsBeforeSizingTheItemSpace) {
  // A valid first basket holding id 2^32-2, then a truncated second one.
  // The loaders size the row store only once the whole stream decoded, so
  // the corruption surfaces before 32 GiB of item counts are allocated.
  std::string bytes = "CMB1";
  AppendVarint(&bytes, UINT32_MAX);
  AppendVarint(&bytes, 2);
  AppendVarint(&bytes, 1);
  AppendVarint(&bytes, UINT32_MAX - 1);
  AppendVarint(&bytes, 1);
  ExpectRejectedEverywhere(bytes, "Corruption: truncated varint");
}

// Three appended segments whose item spaces widen and then narrow (10, 16,
// 12): every reader must see one dataset over the widest space, and the
// chunk walker must report each segment's exact byte range.
TEST(BinaryIoTest, ChunkedFileLoadsListsAndRetires) {
  const std::vector<TransactionDatabase> segments = {
      corrmine::testing::MakeDatabase(10, {{0, 9}, {3}, {}}),
      corrmine::testing::MakeDatabase(16, {{15}, {1, 2, 14}}),
      corrmine::testing::MakeDatabase(12, {{11}, {0, 5}})};
  std::vector<std::vector<ItemId>> expected_rows;
  for (const TransactionDatabase& segment : segments) {
    for (size_t row = 0; row < segment.num_baskets(); ++row) {
      expected_rows.push_back(Row(segment, row));
    }
  }
  const std::string path = ::testing::TempDir() + "/corrmine_chunked.bin";
  std::remove(path.c_str());
  for (const TransactionDatabase& segment : segments) {
    ASSERT_TRUE(AppendBinaryTransactionChunk(segment, path).ok());
  }

  auto loaded = LoadTransactionFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_items(), 16u);
  ASSERT_EQ(loaded->num_baskets(), expected_rows.size());
  for (size_t row = 0; row < expected_rows.size(); ++row) {
    EXPECT_EQ(Row(*loaded, row), expected_rows[row]) << "row " << row;
  }

  ItemId streamed_items = 0;
  std::vector<std::vector<ItemId>> streamed;
  Status stream_status = StreamTransactionFile(
      path, &streamed_items, [&](std::vector<ItemId> basket) {
        streamed.push_back(std::move(basket));
        return Status::OK();
      });
  ASSERT_TRUE(stream_status.ok()) << stream_status.ToString();
  EXPECT_EQ(streamed_items, 16u);
  EXPECT_EQ(streamed, expected_rows);

  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  auto decoded = DecodeBinaryTransactions(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_items(), 16u);
  ASSERT_EQ(decoded->num_baskets(), expected_rows.size());
  for (size_t row = 0; row < expected_rows.size(); ++row) {
    EXPECT_EQ(Row(*decoded, row), expected_rows[row]) << "row " << row;
  }
  auto chunks = ListTransactionChunks(*bytes);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  ASSERT_EQ(chunks->size(), segments.size());
  size_t offset = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const size_t size = EncodeBinaryTransactions(segments[i]).size();
    EXPECT_EQ((*chunks)[i].offset, offset) << "chunk " << i;
    EXPECT_EQ((*chunks)[i].size, size) << "chunk " << i;
    EXPECT_EQ((*chunks)[i].num_items, segments[i].num_items());
    EXPECT_EQ((*chunks)[i].num_baskets, segments[i].num_baskets());
    offset += size;
  }
  EXPECT_EQ(offset, bytes->size());

  // A corrupt byte inside segment 2 fails every reader: first the magic,
  // then the delta of its first basket's item 15, rewritten to 16.
  const size_t second = (*chunks)[1].offset;
  const std::string corrupt_path =
      ::testing::TempDir() + "/corrmine_chunked_corrupt.bin";
  for (const auto& [at, byte] :
       std::vector<std::pair<size_t, char>>{{second, 'X'},
                                            {second + 7, '\x10'}}) {
    std::string corrupt = *bytes;
    ASSERT_EQ(corrupt[second + 7], '\x0f');
    corrupt[at] = byte;
    EXPECT_TRUE(ListTransactionChunks(corrupt).status().IsCorruption());
    ASSERT_TRUE(WriteStringToFile(corrupt, corrupt_path).ok());
    EXPECT_TRUE(LoadTransactionFile(corrupt_path).status().IsCorruption());
    Status status = StreamTransactionFile(
        corrupt_path, &streamed_items,
        [](std::vector<ItemId>) { return Status::OK(); });
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  }
  std::remove(corrupt_path.c_str());

  // Retiring one chunk drops exactly the first segment's bytes.
  ASSERT_TRUE(RetireOldestTransactionChunks(path, 1).ok());
  auto retired_bytes = ReadFileToString(path);
  ASSERT_TRUE(retired_bytes.ok());
  EXPECT_EQ(*retired_bytes, bytes->substr(second));
  auto retired = LoadTransactionFile(path);
  ASSERT_TRUE(retired.ok()) << retired.status().ToString();
  EXPECT_EQ(retired->num_items(), 16u);
  ASSERT_EQ(retired->num_baskets(), 4u);
  for (size_t row = 0; row < 4; ++row) {
    EXPECT_EQ(Row(*retired, row), expected_rows[row + 3]) << "row " << row;
  }
  EXPECT_FALSE(RetireOldestTransactionChunks(path, 2).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corrmine::io
