#ifndef CORRMINE_IO_TRANSACTION_IO_H_
#define CORRMINE_IO_TRANSACTION_IO_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "itemset/transaction_database.h"

namespace corrmine::io {

/// Parses one line of the text transaction format: whitespace-separated
/// non-negative integer item ids. Returns nullopt for comment lines
/// (leading '#'); otherwise the basket, which is empty for blank lines.
/// `line_no` is used in error messages only. Shared by the whole-file
/// readers below and the streaming reader (io/stream_reader.h).
StatusOr<std::optional<std::vector<ItemId>>> ParseTransactionLine(
    std::string_view line, size_t line_no);

/// Unified load path: auto-detects the on-disk format (CMB1 binary, possibly
/// chunked, vs. text — io/format_detect.h) and reads `path` into one
/// database. `num_items_hint` floors the item space for the text format;
/// the binary segment headers are authoritative for their own item space.
/// Timed as phase "io.load" against MetricsRegistry::Global().
StatusOr<TransactionDatabase> LoadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint = 0);

/// Reads basket data in the conventional transaction-file format: one basket
/// per line, whitespace-separated non-negative integer item ids. Blank lines
/// are empty baskets; lines starting with '#' are comments. The item space
/// is sized to the largest id seen (or `num_items_hint` if larger).
StatusOr<TransactionDatabase> ReadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint = 0);

/// Same format, parsed from an in-memory string (used by tests).
StatusOr<TransactionDatabase> ParseTransactions(const std::string& text,
                                                ItemId num_items_hint = 0);

/// Writes a database in the transaction-file format.
Status WriteTransactionFile(const TransactionDatabase& db,
                            const std::string& path);

/// Reads named basket data: one basket per line, whitespace-separated word
/// tokens interned through the database's dictionary.
StatusOr<TransactionDatabase> ParseNamedTransactions(const std::string& text);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_TRANSACTION_IO_H_
