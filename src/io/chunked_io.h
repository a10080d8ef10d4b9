#ifndef CORRMINE_IO_CHUNKED_IO_H_
#define CORRMINE_IO_CHUNKED_IO_H_

#include <string>
#include <vector>

#include "common/status_or.h"
#include "itemset/transaction_database.h"

namespace corrmine::io {

/// Chunked transaction files: one or more CMB1 segments concatenated
/// back-to-back. The format is what delta ingestion appends to — each
/// `ingest --append` adds one segment holding that batch's baskets, and
/// sliding-window retirement drops whole segments off the front by byte
/// range (no re-encode of the surviving chunks). A plain single-segment
/// CMB1 file is a valid chunked file, and the format sniffer
/// (io/format_detect.h) classifies both identically because the first four
/// bytes are the same magic.
///
/// The logical dataset is the concatenation of every segment's baskets in
/// file order, over the item space max(segment item spaces) — so a file
/// loads byte-identically to having written one monolithic CMB1 file with
/// the same rows (modulo the per-segment headers).

/// One CMB1 segment inside a chunked transaction file.
struct TransactionChunkInfo {
  size_t offset = 0;        ///< Byte offset of the segment's magic.
  size_t size = 0;          ///< Encoded byte length of the segment.
  ItemId num_items = 0;     ///< The segment's own item-space size.
  uint64_t num_baskets = 0; ///< Baskets in this segment.
};

/// Walks `bytes` once through the CMB1 decoder (io/binary_io.h) — every
/// record is bounds-checked, none is materialized — and returns one entry
/// per segment in file order. Errors on any corruption, including zero
/// segments.
StatusOr<std::vector<TransactionChunkInfo>> ListTransactionChunks(
    const std::string& bytes);

/// Appends `chunk` as a new segment at the end of `path`, creating the
/// file when absent. An existing file must already be (chunked) binary —
/// text bases must be converted first (the CLI `ingest` verb does this).
Status AppendBinaryTransactionChunk(const TransactionDatabase& chunk,
                                    const std::string& path);

/// Rewrites `path` without its oldest `drop` segments — sliding-window
/// retirement. The surviving segments are copied verbatim by byte range.
/// Errors if `drop >= segment count` (a transaction file may not become
/// empty; re-mine from a fresh base instead).
Status RetireOldestTransactionChunks(const std::string& path, size_t drop);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_CHUNKED_IO_H_
