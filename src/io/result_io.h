#ifndef CORRMINE_IO_RESULT_IO_H_
#define CORRMINE_IO_RESULT_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status_or.h"
#include "core/chi_squared_miner.h"
#include "itemset/transaction_database.h"

namespace corrmine::io {

/// Streams a mining result in a line-oriented text format so downstream
/// tooling (and the CLI's --out flag) can consume it without this library:
///
///   # corrmine result v1
///   level <level> <possible> <candidates> <discards> <sig> <notsig>
///   rule <chi2> <p_value> <dof> <major_mask> <major_interest> <items...>
///
/// Lines starting with '#' are comments; fields are space-separated.
/// Doubles are printed as printf's "%.17g" (std::to_chars, general format,
/// 17 digits), so they round-trip exactly. Rows go through one 64 KiB
/// buffer; returns the bytes handed to `os` (check `os` for errors).
uint64_t WriteMiningResult(const MiningResult& result, std::ostream& os);

/// WriteMiningResult into a string.
std::string SerializeMiningResult(const MiningResult& result);

/// WriteMiningResult into a file; `bytes_written`, when given, receives its
/// size.
Status WriteMiningResult(const MiningResult& result, const std::string& path,
                         uint64_t* bytes_written = nullptr);

/// Streams `mine`'s rule table: a header, a dash rule, then one row per
/// significant rule with the columns itemset, chi2 ("%.3f"), p-value
/// ("%.6f"), major dependence (FormatCellPattern's "{a, !b}", names from
/// `dict` when it has them, else "i<id>") and interest ("%.3f"). Columns
/// are separated by two spaces; itemset and pattern cells are
/// left-aligned, numbers right-aligned, headers left-aligned, and trailing
/// spaces are trimmed. One pass sizes the columns, a second streams the
/// rows through one 64 KiB buffer; no per-cell string is built. Returns
/// the bytes handed to `os` (check `os` for errors).
uint64_t WriteRuleTable(const MiningResult& result, const ItemDictionary* dict,
                        std::ostream& os);

/// Parses the format back. Only the fields present in the format are
/// recovered (cell observed/expected details of the major-dependence cell
/// are not round-tripped; statistic, p-value, masks and itemsets are).
StatusOr<MiningResult> ParseMiningResult(const std::string& text);

/// Reads and parses a result file.
StatusOr<MiningResult> ReadMiningResult(const std::string& path);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_RESULT_IO_H_
