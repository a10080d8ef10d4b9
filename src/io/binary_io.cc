#include "io/binary_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/varint.h"
#include "io/format_detect.h"

namespace corrmine::io {

namespace {

constexpr size_t kMagicSize = sizeof(kBinaryTransactionMagic);

// A basket's size field is only trusted up to this many ids when reserving;
// larger baskets grow as their ids actually arrive.
constexpr uint64_t kMaxBasketReserve = 4096;

// Baskets per decode morsel of DecodeBinaryRows: large enough that the
// scheduling cost vanishes, small enough to balance four workers on a
// 100k-basket file.
constexpr uint64_t kMorselBaskets = 2048;

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

/// The same byte interface over bytes already in memory, from `offset`.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, uint64_t offset)
      : begin_(reinterpret_cast<const uint8_t*>(bytes.data())),
        pos_(begin_ + offset),
        end_(begin_ + bytes.size()) {}

  bool Next(uint8_t* out) {
    if (pos_ == end_) return false;
    *out = *pos_++;
    return true;
  }

  uint64_t consumed() const { return static_cast<uint64_t>(pos_ - begin_); }

  /// Steps past `count` varints by counting their final bytes (high bit
  /// clear); false if the input ends first. Checks nothing else.
  bool SkipVarints(uint64_t count) {
    if constexpr (std::endian::native == std::endian::little) {
      // Eight bytes at a time: count the final bytes in the word, and when
      // the count-th is among them, step just past it.
      while (count > 0 && end_ - pos_ >= 8) {
        uint64_t word = 0;
        std::memcpy(&word, pos_, sizeof(word));
        uint64_t ends = ~word & 0x8080808080808080ULL;
        const uint64_t found = std::popcount(ends);
        if (found < count) {
          count -= found;
          pos_ += 8;
          continue;
        }
        for (; count > 1; --count) ends &= ends - 1;
        pos_ += std::countr_zero(ends) / 8 + 1;
        return true;
      }
    }
    for (; count > 0; --count) {
      do {
        if (pos_ == end_) return false;
      } while (*pos_++ >= 0x80);
    }
    return true;
  }

 private:
  const uint8_t* begin_;
  const uint8_t* pos_;
  const uint8_t* end_;
};

template <typename Source>
const char* ReadVarintFrom(Source& in, uint64_t* value) {
  return DecodeVarint([&in](uint8_t* byte) { return in.Next(byte); }, value);
}

/// Reads one segment header: the magic, the item space and the basket
/// count. `*at_end` is set instead when the input ends cleanly after a
/// previous segment. Returns null or why the header is corrupt.
template <typename Source>
const char* ReadSegmentHeader(Source& in, bool any_segment, bool* at_end,
                              uint64_t* item_space, uint64_t* baskets) {
  char magic[kMagicSize] = {};
  size_t got = 0;
  uint8_t byte = 0;
  while (got < kMagicSize && in.Next(&byte)) {
    magic[got++] = static_cast<char>(byte);
  }
  *at_end = got == 0 && any_segment;
  if (*at_end) return nullptr;
  if (DetectTransactionFormat(std::string_view(magic, got)) !=
      TransactionFileFormat::kBinary) {
    return "missing CMB1 magic";
  }
  if (const char* error = ReadVarintFrom(in, item_space)) return error;
  if (const char* error = ReadVarintFrom(in, baskets)) return error;
  if (*item_space == 0 || *item_space > UINT32_MAX) {
    return "invalid item-space size";
  }
  return nullptr;
}

/// Reads one basket record: a size varint, then `size` item deltas.
/// `begin(size)` runs once the size is checked, `emit(id)` once per
/// validated id. Returns null or why the record is corrupt. Every CMB1
/// reader decodes records here, so all report the same corruption.
template <typename Source, typename Begin, typename Emit>
const char* DecodeBasketRecord(Source& in, uint64_t item_space, Begin&& begin,
                               Emit&& emit) {
  uint64_t size = 0;
  if (const char* error = ReadVarintFrom(in, &size)) return error;
  if (size > item_space) return "basket size exceeds item space";
  begin(size);
  uint64_t current = 0;
  for (uint64_t i = 0; i < size; ++i) {
    uint64_t delta = 0;
    if (const char* error = ReadVarintFrom(in, &delta)) return error;
    if (i > 0 && delta == 0) return "non-increasing item delta";
    // Compared against the room left, so no delta can wrap `current`.
    if (delta >= item_space - current) return "item id out of range";
    current += delta;
    emit(static_cast<ItemId>(current));
  }
  return nullptr;
}

/// The CMB1 segment loop behind DecodeBinaryTransactionStream, over any
/// byte source.
template <typename Source>
Status DecodeSegments(
    Source& in, ItemId* num_items,
    const std::function<Status(uint64_t offset, ItemId num_items,
                               uint64_t num_baskets)>& on_segment,
    const std::function<Status(std::vector<ItemId>)>& sink,
    uint64_t* bytes_consumed) {
  uint64_t max_items = 0;
  bool any_segment = false;
  while (true) {
    // Each chunk of an appended file is its own segment; EOF between
    // segments ends the stream.
    const uint64_t offset = in.consumed();
    uint64_t item_space = 0;
    uint64_t baskets = 0;
    bool at_end = false;
    if (const char* error = ReadSegmentHeader(in, any_segment, &at_end,
                                              &item_space, &baskets)) {
      return Status::Corruption(error);
    }
    if (at_end) break;
    any_segment = true;
    max_items = std::max(max_items, item_space);
    if (on_segment != nullptr) {
      CORRMINE_RETURN_NOT_OK(
          on_segment(offset, static_cast<ItemId>(item_space), baskets));
    }
    for (uint64_t b = 0; b < baskets; ++b) {
      std::vector<ItemId> basket;
      const char* error = DecodeBasketRecord(
          in, item_space,
          [&](uint64_t size) {
            if (sink != nullptr) {
              basket.reserve(std::min(size, kMaxBasketReserve));
            }
          },
          [&](ItemId item) {
            if (sink != nullptr) basket.push_back(item);
          });
      if (error != nullptr) return Status::Corruption(error);
      if (bytes_consumed != nullptr) *bytes_consumed = in.consumed();
      if (sink != nullptr) CORRMINE_RETURN_NOT_OK(sink(std::move(basket)));
    }
  }
  *num_items = static_cast<ItemId>(max_items);
  return Status::OK();
}

/// Where one decode morsel starts: its first basket record's byte offset,
/// its first basket and first id in the row store, and its segment's item
/// space. A morsel ends where the next one starts.
struct Morsel {
  uint64_t byte_offset = 0;
  uint64_t basket_begin = 0;
  uint64_t id_begin = 0;
  uint64_t item_space = 0;
};

/// The serial pass of DecodeBinaryRows: walks every segment header and
/// basket size, skips ids by their final bytes, and records a morsel start
/// every kMorselBaskets baskets and at every segment. Ends with a sentinel
/// morsel holding the exact basket and id totals. Returns null, or the
/// first problem it read (not necessarily the first corruption: it skips
/// the ids it does not read).
const char* ScanMorsels(std::string_view bytes, std::vector<Morsel>* morsels,
                        uint64_t* max_items) {
  ByteReader in(bytes, 0);
  uint64_t basket_total = 0;
  uint64_t id_total = 0;
  bool any_segment = false;
  while (true) {
    uint64_t item_space = 0;
    uint64_t baskets = 0;
    bool at_end = false;
    if (const char* error = ReadSegmentHeader(in, any_segment, &at_end,
                                              &item_space, &baskets)) {
      return error;
    }
    if (at_end) break;
    any_segment = true;
    *max_items = std::max(*max_items, item_space);
    for (uint64_t b = 0; b < baskets; ++b) {
      if (b % kMorselBaskets == 0) {
        morsels->push_back({in.consumed(), basket_total, id_total, item_space});
      }
      uint64_t size = 0;
      if (const char* error = ReadVarintFrom(in, &size)) return error;
      if (size > item_space) return "basket size exceeds item space";
      // Every id takes at least one input byte, so the totals stay bounded
      // by the input size however large the claimed sizes are.
      if (!in.SkipVarints(size)) return "truncated varint";
      ++basket_total;
      id_total += size;
    }
  }
  morsels->push_back({in.consumed(), basket_total, id_total, 0});
  return nullptr;
}

/// Decodes the baskets of `morsel` (up to `next`) into their CSR slice and
/// counts their ids into `counts` (nullable). Returns null or the first
/// corruption.
const char* DecodeMorsel(std::string_view bytes, const Morsel& morsel,
                         const Morsel& next, uint64_t* offsets, ItemId* ids,
                         uint64_t* counts) {
  ByteReader in(bytes, morsel.byte_offset);
  uint64_t id = morsel.id_begin;
  for (uint64_t b = morsel.basket_begin; b < next.basket_begin; ++b) {
    const char* error = DecodeBasketRecord(
        in, morsel.item_space,
        [&](uint64_t size) {
          // The scan read the same sizes: a mismatch is a decoder bug.
          CORRMINE_CHECK(size <= next.id_begin - id)
              << "CMB1 morsel overruns its scanned id range";
        },
        [&](ItemId item) {
          ids[id++] = item;
          if (counts != nullptr) ++counts[item];
        });
    if (error != nullptr) return error;
    offsets[b + 1] = id;
  }
  return nullptr;
}

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
    const std::span<const ItemId> basket = db.basket(row);
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
  return DecodeSegments(window, num_items, on_segment, sink, bytes_consumed);
}

StatusOr<TransactionDatabase> DecodeBinaryRows(std::string_view bytes,
                                               ThreadPool* pool) {
  std::vector<Morsel> morsels;
  uint64_t max_items = 0;
  if (ScanMorsels(bytes, &morsels, &max_items) != nullptr) {
    // The scan checks only what it reads. The first corruption in file
    // order may sit in ids it skipped, so a serial decode of every record
    // names it.
    ByteReader in(bytes, 0);
    ItemId ignored = 0;
    const Status status =
        DecodeSegments(in, &ignored, nullptr, nullptr, nullptr);
    CORRMINE_CHECK(!status.ok()) << "CMB1 scan failed on a valid input";
    return status;
  }
  const Morsel& totals = morsels.back();
  const size_t num_morsels = morsels.size() - 1;
  RowOffsets offsets;
  SizeWithSpare(&offsets, totals.basket_begin + 1);
  offsets[0] = 0;
  RowIds ids;
  SizeWithSpare(&ids, totals.id_begin);
  // Item counts go to per-slot arrays, merged once the morsels are done.
  // Where the item space exceeds the id count, one pass over the ids costs
  // less than merging (and holding) an array per slot.
  const bool slot_counts = max_items <= totals.id_begin;
  std::vector<std::vector<uint64_t>> counts(
      ParallelForSlotBound(pool, num_morsels, 1));
  CORRMINE_RETURN_NOT_OK(ParallelForSlots(
      pool, num_morsels, 1,
      [&](size_t slot, size_t begin, size_t end) -> Status {
        uint64_t* slot_array = nullptr;
        if (slot_counts) {
          if (counts[slot].empty()) counts[slot].assign(max_items, 0);
          slot_array = counts[slot].data();
        }
        for (size_t m = begin; m < end; ++m) {
          if (const char* error =
                  DecodeMorsel(bytes, morsels[m], morsels[m + 1],
                               offsets.data(), ids.data(), slot_array)) {
            return Status::Corruption(error);
          }
        }
        return Status::OK();
      }));
  std::vector<uint64_t> item_counts = std::move(counts[0]);
  item_counts.resize(max_items, 0);
  for (size_t slot = 1; slot < counts.size(); ++slot) {
    for (size_t item = 0; item < counts[slot].size(); ++item) {
      item_counts[item] += counts[slot][item];
    }
  }
  if (!slot_counts) {
    for (const ItemId item : ids) ++item_counts[item];
  }
  return TransactionDatabase::FromRows(static_cast<ItemId>(max_items),
                                       std::move(offsets), std::move(ids),
                                       std::move(item_counts));
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
