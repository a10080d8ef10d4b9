#include "io/stream_reader.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "io/format_detect.h"
#include "io/transaction_io.h"

namespace corrmine::io {

namespace {

/// Rolling read window over an ifstream: the binary decoder below pulls
/// bytes one at a time and the window refills in 64 KiB chunks, so decode
/// state never depends on segment boundaries landing inside the buffer.
class BufferedReader {
 public:
  explicit BufferedReader(std::ifstream* in) : in_(in) {}

  /// True and *out set, or false at clean EOF.
  bool TryNext(uint8_t* out) {
    if (pos_ == len_ && !Refill()) return false;
    *out = static_cast<uint8_t>(buf_[pos_++]);
    return true;
  }

  StatusOr<uint64_t> ReadVarint() {
    uint64_t value = 0;
    int shift = 0;
    uint8_t byte = 0;
    while (shift < 64) {
      if (!TryNext(&byte)) {
        return Status::Corruption("truncated varint in binary stream");
      }
      if (shift == 63 && byte > 1) break;
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
    return Status::Corruption("varint overflow in binary stream");
  }

  /// Input bytes decoded so far (refilled minus the unread buffer tail).
  uint64_t consumed() const { return refilled_ - (len_ - pos_); }

 private:
  bool Refill() {
    buf_.resize(64 * 1024);
    in_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    len_ = static_cast<size_t>(in_->gcount());
    refilled_ += len_;
    pos_ = 0;
    return len_ > 0;
  }

  std::ifstream* in_;
  std::string buf_;
  size_t pos_ = 0;
  size_t len_ = 0;
  uint64_t refilled_ = 0;
};

Status StreamBinary(std::ifstream* in, ItemId* num_items,
                    const std::function<Status(std::vector<ItemId>)>& sink,
                    uint64_t* bytes_consumed) {
  BufferedReader reader(in);
  uint64_t item_space_max = 0;
  bool any_segment = false;
  while (true) {
    // Each chunk of an appended file is its own CMB1 segment; clean EOF
    // between segments ends the stream.
    uint8_t byte = 0;
    if (!reader.TryNext(&byte)) break;
    const char magic[4] = {'C', 'M', 'B', '1'};
    if (static_cast<char>(byte) != magic[0]) {
      return Status::Corruption("missing CMB1 magic in segment");
    }
    for (int i = 1; i < 4; ++i) {
      if (!reader.TryNext(&byte) || static_cast<char>(byte) != magic[i]) {
        return Status::Corruption("missing CMB1 magic in segment");
      }
    }
    CORRMINE_ASSIGN_OR_RETURN(const uint64_t item_space, reader.ReadVarint());
    CORRMINE_ASSIGN_OR_RETURN(const uint64_t baskets, reader.ReadVarint());
    if (item_space == 0 || item_space > UINT32_MAX) {
      return Status::Corruption("invalid item-space size");
    }
    any_segment = true;
    item_space_max = std::max(item_space_max, item_space);
    for (uint64_t b = 0; b < baskets; ++b) {
      CORRMINE_ASSIGN_OR_RETURN(const uint64_t size, reader.ReadVarint());
      if (size > item_space) {
        return Status::Corruption("basket size exceeds item space");
      }
      std::vector<ItemId> basket;
      basket.reserve(size);
      uint64_t current = 0;
      for (uint64_t i = 0; i < size; ++i) {
        CORRMINE_ASSIGN_OR_RETURN(const uint64_t delta, reader.ReadVarint());
        if (i > 0 && delta == 0) {
          return Status::Corruption("non-increasing item delta");
        }
        current = i == 0 ? delta : current + delta;
        if (current >= item_space) {
          return Status::Corruption("item id out of range");
        }
        basket.push_back(static_cast<ItemId>(current));
      }
      if (bytes_consumed != nullptr) *bytes_consumed = reader.consumed();
      CORRMINE_RETURN_NOT_OK(sink(std::move(basket)));
    }
  }
  if (!any_segment) {
    return Status::Corruption("binary stream holds no CMB1 segment");
  }
  *num_items = static_cast<ItemId>(item_space_max);
  return Status::OK();
}

Status StreamText(std::ifstream* in, ItemId* num_items,
                  const std::function<Status(std::vector<ItemId>)>& sink,
                  uint64_t* bytes_consumed) {
  std::string line;
  size_t line_no = 0;
  ItemId max_item_plus_1 = 0;
  uint64_t consumed = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    consumed += line.size() + 1;
    CORRMINE_ASSIGN_OR_RETURN(auto basket,
                              ParseTransactionLine(line, line_no));
    if (!basket.has_value()) continue;  // comment line
    for (const ItemId item : *basket) {
      max_item_plus_1 = std::max(max_item_plus_1, item + 1);
    }
    if (bytes_consumed != nullptr) *bytes_consumed = consumed;
    CORRMINE_RETURN_NOT_OK(sink(std::move(*basket)));
  }
  *num_items = max_item_plus_1;
  return Status::OK();
}

}  // namespace

Status StreamTransactionFile(
    const std::string& path, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink,
    uint64_t* bytes_consumed) {
  CORRMINE_ASSIGN_OR_RETURN(const TransactionFileFormat format,
                            DetectTransactionFileFormat(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  return format == TransactionFileFormat::kBinary
             ? StreamBinary(&in, num_items, sink, bytes_consumed)
             : StreamText(&in, num_items, sink, bytes_consumed);
}

}  // namespace corrmine::io
