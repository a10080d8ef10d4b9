#ifndef CORRMINE_CORE_BATCH_TABLES_H_
#define CORRMINE_CORE_BATCH_TABLES_H_

#include <vector>

#include "common/status_or.h"
#include "core/contingency_table.h"
#include "itemset/transaction_database.h"

namespace corrmine {

/// Builds the sparse contingency tables of many candidate itemsets in a
/// single pass over the database — the alternative counting strategy the
/// paper analyzes in Section 4 ("make one pass over the database at each
/// level, constructing all the necessary contingency tables at once",
/// O(n * |CAND|) time, O(k^i) space in the worst case).
///
/// Each basket is projected onto every candidate (a merge over the sorted
/// basket) and the resulting presence pattern counted. Returns one sparse
/// table per candidate, in input order, each table's occupied cells sorted
/// by mask. Candidates must be non-empty, of size <=
/// SparseContingencyTable::kMaxItems, with in-range items.
///
/// `num_threads` splits the basket scan: each worker accumulates private
/// per-candidate pattern counts over its basket ranges and a sequential
/// reduction sums them in slot order, so the result is identical for any
/// thread count (1 = sequential, 0 = hardware concurrency).
StatusOr<std::vector<SparseContingencyTable>> BuildSparseTablesBatch(
    const TransactionDatabase& db, const std::vector<Itemset>& candidates,
    int num_threads = 1);

}  // namespace corrmine

#endif  // CORRMINE_CORE_BATCH_TABLES_H_
