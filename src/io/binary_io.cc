#include "io/binary_io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#include "common/varint.h"
#include "io/format_detect.h"

namespace corrmine::io {

namespace {

constexpr size_t kMagicSize = sizeof(kBinaryTransactionMagic);

// A basket's size field is only trusted up to this many ids when reserving;
// larger baskets grow as their ids actually arrive.
constexpr uint64_t kMaxBasketReserve = 4096;

/// Rolling 64 KiB read window over an istream: the decoder pulls bytes one
/// at a time and the window refills in bulk, so decode state never depends
/// on where a refill boundary lands.
class ReadWindow {
 public:
  explicit ReadWindow(std::istream* in) : in_(in), buf_(64 * 1024, '\0') {}

  /// True and *out set, or false at EOF.
  bool Next(uint8_t* out) {
    if (pos_ == len_ && !Refill()) return false;
    *out = static_cast<uint8_t>(buf_[pos_++]);
    return true;
  }

  /// Input bytes decoded so far (refilled minus the unread window tail).
  uint64_t consumed() const { return refilled_ - (len_ - pos_); }

 private:
  bool Refill() {
    in_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    len_ = static_cast<size_t>(in_->gcount());
    refilled_ += len_;
    pos_ = 0;
    return len_ > 0;
  }

  std::istream* in_;
  std::string buf_;
  size_t pos_ = 0;
  size_t len_ = 0;
  uint64_t refilled_ = 0;
};

}  // namespace

StatusOr<uint64_t> ReadVarint(std::string_view bytes, size_t* pos) {
  uint64_t value = 0;
  const char* error = DecodeVarint(
      [&](uint8_t* byte) {
        if (*pos >= bytes.size()) return false;
        *byte = static_cast<uint8_t>(bytes[(*pos)++]);
        return true;
      },
      &value);
  if (error != nullptr) return Status::Corruption(error);
  return value;
}

std::string EncodeBinaryTransactions(const TransactionDatabase& db) {
  std::string out(kBinaryTransactionMagic, kMagicSize);
  AppendVarint(&out, db.num_items());
  AppendVarint(&out, db.num_baskets());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    const std::vector<ItemId>& basket = db.basket(row);
    AppendVarint(&out, basket.size());
    ItemId previous = 0;
    for (size_t i = 0; i < basket.size(); ++i) {
      uint64_t delta = i == 0 ? basket[i] : basket[i] - previous;
      AppendVarint(&out, delta);
      previous = basket[i];
    }
  }
  return out;
}

Status DecodeBinaryTransactionStream(
    std::istream& in, ItemId* num_items,
    const std::function<Status(uint64_t offset, ItemId num_items,
                               uint64_t num_baskets)>& on_segment,
    const std::function<Status(std::vector<ItemId>)>& sink,
    uint64_t* bytes_consumed) {
  ReadWindow window(&in);
  const char* error = nullptr;
  auto read = [&](uint64_t* value) {
    error = DecodeVarint(
        [&window](uint8_t* byte) { return window.Next(byte); }, value);
    return error == nullptr;
  };
  uint64_t max_items = 0;
  bool any_segment = false;
  while (true) {
    // Each chunk of an appended file is its own segment; EOF between
    // segments ends the stream.
    const uint64_t offset = window.consumed();
    char magic[kMagicSize] = {};
    size_t got = 0;
    uint8_t byte = 0;
    while (got < kMagicSize && window.Next(&byte)) {
      magic[got++] = static_cast<char>(byte);
    }
    if (got == 0 && any_segment) break;
    if (DetectTransactionFormat(std::string_view(magic, got)) !=
        TransactionFileFormat::kBinary) {
      return Status::Corruption("missing CMB1 magic");
    }
    uint64_t item_space = 0;
    uint64_t baskets = 0;
    if (!read(&item_space) || !read(&baskets)) {
      return Status::Corruption(error);
    }
    if (item_space == 0 || item_space > UINT32_MAX) {
      return Status::Corruption("invalid item-space size");
    }
    any_segment = true;
    max_items = std::max(max_items, item_space);
    if (on_segment != nullptr) {
      CORRMINE_RETURN_NOT_OK(
          on_segment(offset, static_cast<ItemId>(item_space), baskets));
    }
    for (uint64_t b = 0; b < baskets; ++b) {
      uint64_t size = 0;
      if (!read(&size)) return Status::Corruption(error);
      if (size > item_space) {
        return Status::Corruption("basket size exceeds item space");
      }
      std::vector<ItemId> basket;
      if (sink != nullptr) basket.reserve(std::min(size, kMaxBasketReserve));
      uint64_t current = 0;
      for (uint64_t i = 0; i < size; ++i) {
        uint64_t delta = 0;
        if (!read(&delta)) return Status::Corruption(error);
        if (i > 0 && delta == 0) {
          return Status::Corruption("non-increasing item delta");
        }
        // Compared against the room left, so no delta can wrap `current`.
        if (delta >= item_space - current) {
          return Status::Corruption("item id out of range");
        }
        current += delta;
        if (sink != nullptr) basket.push_back(static_cast<ItemId>(current));
      }
      if (bytes_consumed != nullptr) *bytes_consumed = window.consumed();
      if (sink != nullptr) CORRMINE_RETURN_NOT_OK(sink(std::move(basket)));
    }
  }
  *num_items = static_cast<ItemId>(max_items);
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open " + path);
  }
  std::ostringstream content;
  content << file.rdbuf();
  if (file.bad()) {
    return Status::IOError("error reading " + path);
  }
  return content.str();
}

Status WriteStringToFile(const std::string& bytes, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) {
    return Status::IOError("error writing " + path);
  }
  return Status::OK();
}

Status WriteBinaryTransactionFile(const TransactionDatabase& db,
                                  const std::string& path) {
  return WriteStringToFile(EncodeBinaryTransactions(db), path);
}

}  // namespace corrmine::io
