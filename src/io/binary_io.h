#ifndef CORRMINE_IO_BINARY_IO_H_
#define CORRMINE_IO_BINARY_IO_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/status_or.h"
#include "itemset/transaction_database.h"

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

StatusOr<TransactionDatabase> ReadBinaryTransactionFile(
    const std::string& path);

/// In-memory codec (exposed for tests and tooling).
std::string EncodeBinaryTransactions(const TransactionDatabase& db);
StatusOr<TransactionDatabase> DecodeBinaryTransactions(
    const std::string& bytes);

/// Streaming decode: validates the header, stores the item-space size into
/// `*num_items`, then invokes `sink` once per basket in file order — the
/// primitive behind DecodeBinaryTransactions.
/// `*num_items` is set before the first sink call. The first non-OK status
/// from `sink` aborts the decode.
Status DecodeBinaryTransactionsInto(
    const std::string& bytes, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink);

/// Decodes one CMB1 segment starting at `*pos` (magic included), invoking
/// `sink` per basket, and leaves `*pos` on the first byte after the segment
/// — the primitive the chunked append format (io/chunked_io.h) iterates.
/// Unlike DecodeBinaryTransactionsInto it does NOT reject trailing bytes;
/// the caller decides whether more segments follow. `sink` may be null to
/// skip over a segment (header validation and bounds checks still run).
Status DecodeBinaryTransactionSegment(
    const std::string& bytes, size_t* pos, ItemId* num_items,
    uint64_t* num_baskets,
    const std::function<Status(std::vector<ItemId>)>& sink);

/// Whole-file byte helpers shared by the binary codecs.
StatusOr<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& bytes, const std::string& path);

/// LEB128 varint primitives, shared with the other binary codecs (chunked
/// transaction files, border-state snapshots).
void AppendVarint(std::string* out, uint64_t value);
/// Reads one varint at `*pos`, advancing it. Errors on truncation and on
/// encodings past 64 bits: a 10th byte must be 0 or 1, with no
/// continuation bit.
StatusOr<uint64_t> ReadVarint(std::string_view bytes, size_t* pos);

/// True when `path` starts with the binary magic. Thin wrapper over
/// DetectTransactionFileFormat (io/format_detect.h), kept for callers that
/// only care about this one format.
bool LooksLikeBinaryTransactionFile(const std::string& path);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_BINARY_IO_H_
