#ifndef CORRMINE_IO_TRANSACTION_IO_H_
#define CORRMINE_IO_TRANSACTION_IO_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "itemset/transaction_database.h"

namespace corrmine {
class ThreadPool;
}  // namespace corrmine

namespace corrmine::io {

/// The one module that reads transaction files. Every reader below sniffs
/// or is told the format (io/format_detect.h): CMB1 binary (possibly
/// chunked) loads through DecodeBinaryRows and streams through
/// DecodeBinaryTransactionStream (io/binary_io.h), which share one record
/// decoder; text goes through one line loop.

/// Parses one line of the text transaction format: whitespace-separated
/// non-negative integer item ids below 2^32-1. Returns nullopt for comment
/// lines (leading '#'); otherwise the basket, which is empty for blank
/// lines. `line_no` is used in error messages only.
StatusOr<std::optional<std::vector<ItemId>>> ParseTransactionLine(
    std::string_view line, size_t line_no);

/// Streams a transaction file basket-by-basket without materializing the
/// database — the primitive behind LoadTransactionFile and the entry point
/// the out-of-core spill pass reads through, so resident memory stays
/// O(one basket + read window) no matter the file size.
///
/// `num_items` receives the item-space size on success: the maximum of the
/// per-segment header values for binary files (authoritative — it may
/// exceed the largest id actually present), or max id + 1 for text. `sink`
/// is invoked once per basket in file order; a non-OK sink status aborts
/// the stream.
///
/// `bytes_consumed` (optional) is kept current before every sink call:
/// input bytes decoded so far, within one read-window refill for binary
/// files and exact for text. Paired with the file size it gives the
/// pipelined out-of-core spill pass a deterministic progress fraction — a
/// pure function of the input prefix, never of wall-clock or threads.
Status StreamTransactionFile(
    const std::string& path, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink,
    uint64_t* bytes_consumed = nullptr);

/// Loads `path` into one database, timed as phase "io.load" against
/// MetricsRegistry::Global(), which also counts "io.load.bytes" (input bytes
/// decoded) and "io.load.baskets". CMB1 files are mapped and decoded by
/// DecodeBinaryRows (io/binary_io.h) in morsels on `pool` (nullable:
/// inline), and unmapped before this returns; multi-segment files load as
/// the concatenation of their segments over the maximum segment header.
/// Text files go through the one text line loop into the same row store:
/// the item space is max(`num_items_hint`, max id + 1, 1), sized only once
/// the whole file parsed, so a corrupt tail fails before any item space is
/// allocated. Text lines hold whitespace-separated ids, blank lines are
/// empty baskets and lines starting with '#' are comments.
StatusOr<TransactionDatabase> LoadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint = 0,
                                                  ThreadPool* pool = nullptr);

/// Loads a named-item text file (ParseNamedTransactions) with the same
/// phase and counters as LoadTransactionFile.
StatusOr<TransactionDatabase> LoadNamedTransactionFile(
    const std::string& path);

/// In-memory readers over the same decoders (used by tests and tooling):
/// text with the item space sized as for LoadTransactionFile, and CMB1
/// bytes (one or more segments) over the maximum segment header.
StatusOr<TransactionDatabase> ParseTransactions(const std::string& text,
                                                ItemId num_items_hint = 0);
StatusOr<TransactionDatabase> DecodeBinaryTransactions(
    const std::string& bytes, ThreadPool* pool = nullptr);

/// Writes a database in the transaction-file format.
Status WriteTransactionFile(const TransactionDatabase& db,
                            const std::string& path);

/// Reads named basket data: one basket per line, whitespace-separated word
/// tokens interned through the database's dictionary.
StatusOr<TransactionDatabase> ParseNamedTransactions(const std::string& text);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_TRANSACTION_IO_H_
