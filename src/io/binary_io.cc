#include "io/binary_io.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "io/format_detect.h"

namespace corrmine::io {

namespace {

// The shared sniffing helper owns the magic; keep a local alias so the
// encoder reads naturally.
constexpr const char* kMagic = kBinaryTransactionMagic;
constexpr size_t kMagicSize = sizeof(kBinaryTransactionMagic);

}  // namespace

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

StatusOr<uint64_t> ReadVarint(std::string_view bytes, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (*pos >= bytes.size()) {
      return Status::Corruption("truncated varint");
    }
    uint8_t byte = static_cast<uint8_t>(bytes[(*pos)++]);
    if (shift == 63 && byte > 1) {
      return Status::Corruption("varint overflow");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::string EncodeBinaryTransactions(const TransactionDatabase& db) {
  std::string out(kMagic, kMagicSize);
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

Status DecodeBinaryTransactionSegment(
    const std::string& bytes, size_t* pos, ItemId* num_items,
    uint64_t* num_baskets,
    const std::function<Status(std::vector<ItemId>)>& sink) {
  if (bytes.size() < *pos + kMagicSize ||
      bytes.compare(*pos, kMagicSize, kMagic, kMagicSize) != 0) {
    return Status::Corruption("missing CMB1 magic");
  }
  *pos += kMagicSize;
  CORRMINE_ASSIGN_OR_RETURN(uint64_t item_space, ReadVarint(bytes, pos));
  CORRMINE_ASSIGN_OR_RETURN(uint64_t baskets, ReadVarint(bytes, pos));
  if (item_space == 0 || item_space > UINT32_MAX) {
    return Status::Corruption("invalid item-space size");
  }
  *num_items = static_cast<ItemId>(item_space);
  *num_baskets = baskets;

  for (uint64_t b = 0; b < baskets; ++b) {
    CORRMINE_ASSIGN_OR_RETURN(uint64_t size, ReadVarint(bytes, pos));
    if (size > item_space) {
      return Status::Corruption("basket size exceeds item space");
    }
    std::vector<ItemId> basket;
    if (sink != nullptr) basket.reserve(size);
    uint64_t current = 0;
    for (uint64_t i = 0; i < size; ++i) {
      CORRMINE_ASSIGN_OR_RETURN(uint64_t delta, ReadVarint(bytes, pos));
      if (i > 0 && delta == 0) {
        return Status::Corruption("non-increasing item delta");
      }
      current = i == 0 ? delta : current + delta;
      if (current >= item_space) {
        return Status::Corruption("item id out of range");
      }
      if (sink != nullptr) basket.push_back(static_cast<ItemId>(current));
    }
    if (sink != nullptr) {
      CORRMINE_RETURN_NOT_OK(sink(std::move(basket)));
    }
  }
  return Status::OK();
}

Status DecodeBinaryTransactionsInto(
    const std::string& bytes, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink) {
  size_t pos = 0;
  uint64_t num_baskets = 0;
  CORRMINE_RETURN_NOT_OK(DecodeBinaryTransactionSegment(
      bytes, &pos, num_items, &num_baskets, sink));
  if (pos != bytes.size()) {
    return Status::Corruption("trailing bytes after final basket");
  }
  return Status::OK();
}

StatusOr<TransactionDatabase> DecodeBinaryTransactions(
    const std::string& bytes) {
  // The database is created lazily inside the sink because the item-space
  // size only becomes known once the header has been validated.
  std::unique_ptr<TransactionDatabase> db;
  ItemId num_items = 0;
  CORRMINE_RETURN_NOT_OK(DecodeBinaryTransactionsInto(
      bytes, &num_items, [&](std::vector<ItemId> basket) -> Status {
        if (!db) db = std::make_unique<TransactionDatabase>(num_items);
        return db->AddBasket(std::move(basket));
      }));
  if (!db) db = std::make_unique<TransactionDatabase>(num_items);
  return std::move(*db);
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

StatusOr<TransactionDatabase> ReadBinaryTransactionFile(
    const std::string& path) {
  CORRMINE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeBinaryTransactions(bytes);
}

bool LooksLikeBinaryTransactionFile(const std::string& path) {
  auto format = DetectTransactionFileFormat(path);
  return format.ok() && *format == TransactionFileFormat::kBinary;
}

}  // namespace corrmine::io
