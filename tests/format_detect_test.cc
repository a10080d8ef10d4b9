#include "io/format_detect.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "io/binary_io.h"
#include "io/transaction_io.h"
#include "test_util.h"

namespace corrmine::io {
namespace {

std::string WriteTemp(const std::string& name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  return path;
}

TEST(FormatDetectTest, ClassifiesHeads) {
  EXPECT_EQ(DetectTransactionFormat("CMB1\x05\x02"),
            TransactionFileFormat::kBinary);
  EXPECT_EQ(DetectTransactionFormat("1 2 3\n4 5\n"),
            TransactionFileFormat::kText);
  EXPECT_EQ(DetectTransactionFormat("# comment\n1 2\n"),
            TransactionFileFormat::kText);
  // Anything shorter than the magic is text by definition — a valid binary
  // file always carries the full 4-byte magic.
  EXPECT_EQ(DetectTransactionFormat(""), TransactionFileFormat::kText);
  EXPECT_EQ(DetectTransactionFormat("CMB"), TransactionFileFormat::kText);
  // Near-misses (wrong version byte) are text, not binary.
  EXPECT_EQ(DetectTransactionFormat("CMB2garbage"),
            TransactionFileFormat::kText);
}

TEST(FormatDetectTest, ClassifiesFiles) {
  auto db = corrmine::testing::RandomIndependentDatabase(10, 50, 11);
  std::string bin_path = WriteTemp("format_detect.bin",
                                   EncodeBinaryTransactions(db));
  auto bin = DetectTransactionFileFormat(bin_path);
  ASSERT_TRUE(bin.ok()) << bin.status().ToString();
  EXPECT_EQ(*bin, TransactionFileFormat::kBinary);
  std::remove(bin_path.c_str());

  std::string text_path = WriteTemp("format_detect.txt", "0 1 2\n3 4\n");
  auto text = DetectTransactionFileFormat(text_path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, TransactionFileFormat::kText);
  std::remove(text_path.c_str());

  // An empty file is text (the text reader yields zero baskets).
  std::string empty_path = WriteTemp("format_detect_empty.txt", "");
  auto empty = DetectTransactionFileFormat(empty_path);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, TransactionFileFormat::kText);
  std::remove(empty_path.c_str());

  auto missing = DetectTransactionFileFormat("/nonexistent/file.bin");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIOError());
}

TEST(FormatDetectTest, SniffAgreesWithBinaryWriter) {
  // The writer and the sniffer must share one magic: a written binary file
  // is always detected as binary.
  auto db = corrmine::testing::RandomIndependentDatabase(5, 20, 3);
  std::string path = ::testing::TempDir() + "/format_detect_agree.bin";
  ASSERT_TRUE(WriteBinaryTransactionFile(db, path).ok());
  auto detected = DetectTransactionFileFormat(path);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(*detected, TransactionFileFormat::kBinary);
  std::remove(path.c_str());
}

TEST(FormatDetectTest, FormatNames) {
  EXPECT_STREQ(TransactionFileFormatName(TransactionFileFormat::kBinary),
               "binary");
  EXPECT_STREQ(TransactionFileFormatName(TransactionFileFormat::kText),
               "text");
}

}  // namespace
}  // namespace corrmine::io
