#ifndef CORRMINE_IO_BINARY_IO_H_
#define CORRMINE_IO_BINARY_IO_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "common/varint.h"
#include "itemset/transaction_database.h"

namespace corrmine {
class ThreadPool;
}  // namespace corrmine

namespace corrmine::io {

/// Compact binary basket format ("CMB1"): a fixed header followed by one
/// varint-encoded record per basket. Within a basket, item ids are
/// delta-encoded (baskets are sorted, so deltas are small) and LEB128
/// varint packed — typically 1–2 bytes per (basket, item) pair versus 4–8
/// in the text format. Integrity is guarded by the header magic, explicit
/// counts, and strict bounds checks on read.
///
/// Layout (all varints are unsigned LEB128):
///   magic "CMB1" (4 bytes)
///   varint num_items
///   varint num_baskets
///   per basket: varint size, then `size` varint deltas
///     (first delta = first id, subsequent = id - previous id, so every
///      delta after the first is >= 1).
Status WriteBinaryTransactionFile(const TransactionDatabase& db,
                                  const std::string& path);

/// In-memory encoder (exposed for tests and tooling).
std::string EncodeBinaryTransactions(const TransactionDatabase& db);

/// The streaming CMB1 decoder: the out-of-core spill pass and the chunk
/// walker read through it, and it shares its segment and record decoding
/// with DecodeBinaryRows below. Reads `in` from its current position to EOF
/// as one or more back-to-back CMB1 segments (a chunked file,
/// io/chunked_io.h), through a 64 KiB read window. `on_segment` (nullable)
/// fires at each segment header, before its baskets, with the segment's
/// byte offset from the start position, its item space and its basket
/// count. `sink`
/// (nullable: validate only) gets every basket in file order; its first
/// non-OK status aborts the decode. On success `*num_items` is the maximum
/// of the segment item spaces.
///
/// Every header and record is bounds-checked: a bad magic, an item space of
/// 0 or above 2^32-1, a basket larger than its item space, a repeated item,
/// an id at or past the item space (checked without wrapping), a truncated
/// or overlong varint, or an input with no segment is Corruption.
///
/// `bytes_consumed` (optional) is kept current before every sink call:
/// input bytes decoded so far, within one window refill.
Status DecodeBinaryTransactionStream(
    std::istream& in, ItemId* num_items,
    const std::function<Status(uint64_t offset, ItemId num_items,
                               uint64_t num_baskets)>& on_segment,
    const std::function<Status(std::vector<ItemId>)>& sink,
    uint64_t* bytes_consumed = nullptr);

/// Decodes CMB1 `bytes` (one or more segments) straight into the CSR row
/// store. A serial scan walks the segment headers and basket sizes, skipping
/// ids, and cuts the baskets into fixed-size morsels with their exact row
/// and id offsets; the morsels then decode on `pool` (nullable: inline)
/// into disjoint slices of the row store. Every check of
/// DecodeBinaryTransactionStream runs in the morsels, and a corrupt input
/// fails with that decoder's Status: the first corruption in file order.
/// The row store is sized from the scanned totals, never from a claimed
/// count, so it is bounded by the input size. The item space is the maximum
/// segment header.
StatusOr<TransactionDatabase> DecodeBinaryRows(std::string_view bytes,
                                               ThreadPool* pool);

/// Whole-file byte helpers shared by the binary codecs.
StatusOr<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& bytes, const std::string& path);

/// LEB128 varints (common/varint.h) for the byte-string codecs: CBS1
/// border snapshots and the CCS shard directory. ReadVarint reads one at
/// `*pos`, advancing it, under the same DecodeVarint rule as the CMB1
/// stream.
using corrmine::AppendVarint;
StatusOr<uint64_t> ReadVarint(std::string_view bytes, size_t* pos);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_BINARY_IO_H_
