#ifndef CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_
#define CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_

#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status_or.h"
#include "itemset/bitmap.h"
#include "itemset/itemset.h"

namespace corrmine {

class ThreadPool;

/// std::allocator that default-initializes on resize(): a row store sized
/// from a scanned total is written in full by its decoder, so the
/// value-initializing memset of plain std::vector would be a wasted serial
/// pass over every page.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// The row store's two CSR arrays: basket i holds ids
/// [offsets[i], offsets[i+1]) of one flat id array.
using RowOffsets = std::vector<uint64_t, DefaultInitAllocator<uint64_t>>;
using RowIds = std::vector<ItemId, DefaultInitAllocator<ItemId>>;

/// Sizes a row-store array for `size` elements plus spare capacity for 1/8
/// more. The spare elements are never constructed, so their pages stay
/// untouched: they cost address space, not memory. A small delta appended
/// to a decoded or copied database then lands in place instead of moving
/// every row to a new allocation.
template <typename T>
void SizeWithSpare(std::vector<T, DefaultInitAllocator<T>>* array,
                   size_t size) {
  array->reserve(size + size / 8);
  array->resize(size);
}

/// Maps between external item names (words, attribute labels) and dense
/// ItemIds. Generators that already work in id space can skip it.
class ItemDictionary {
 public:
  ItemDictionary() = default;

  /// Returns the id of `name`, interning it on first sight.
  ItemId GetOrAdd(const std::string& name);

  /// Id lookup without interning.
  StatusOr<ItemId> Get(const std::string& name) const;

  /// Name of an id; errors if out of range.
  StatusOr<std::string> Name(ItemId id) const;

  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, ItemId> ids_;
  std::vector<std::string> names_;
};

/// The paper's basket data B = {b_1 .. b_n}: a list of baskets, each a set of
/// items from I. Rows live in one CSR store — an offsets array and one flat
/// array of sorted ids — so a basket is a span into it; per-item occurrence
/// counts O(i) are maintained incrementally so that expected values under
/// independence are O(1) to form.
class TransactionDatabase {
 public:
  /// `num_items` fixes the item space I = {0 .. num_items-1}. Baskets may
  /// only contain ids below it.
  explicit TransactionDatabase(ItemId num_items);

  /// Copies hold the rows with SizeWithSpare's append room.
  TransactionDatabase(const TransactionDatabase& other);
  TransactionDatabase& operator=(const TransactionDatabase& other) {
    return *this = TransactionDatabase(other);
  }
  TransactionDatabase(TransactionDatabase&&) = default;
  TransactionDatabase& operator=(TransactionDatabase&&) = default;

  /// Adopts rows already in CSR form. The caller guarantees what a decoder
  /// that validated them proves: offsets start at 0, never decrease and end
  /// at ids.size(); every row is strictly increasing with ids below
  /// `num_items`; and `item_counts[i]` is the number of rows holding i, for
  /// all i < num_items. Only the array sizes are checked.
  static TransactionDatabase FromRows(ItemId num_items, RowOffsets offsets,
                                      RowIds ids,
                                      std::vector<uint64_t> item_counts);

  /// Appends a basket; items are sorted/deduplicated. Errors if any item id
  /// is out of range. A span (another database's row) is copied as is when
  /// already strictly increasing; a braced list reads as a span.
  Status AddBasket(std::vector<ItemId> items);
  Status AddBasket(std::span<const ItemId> items);
  Status AddBasket(std::initializer_list<ItemId> items) {
    return AddBasket(std::span<const ItemId>(items.begin(), items.size()));
  }

  /// Widens the item space to `num_items` (delta chunks may introduce ids
  /// the base dataset never saw). Existing baskets and counts are
  /// unchanged; errors if the space would shrink.
  Status GrowItemSpace(ItemId num_items);

  size_t num_baskets() const { return offsets_.size() - 1; }
  ItemId num_items() const { return num_items_; }

  std::span<const ItemId> basket(size_t i) const {
    return {ids_.data() + offsets_[i], ids_.data() + offsets_[i + 1]};
  }

  /// Occurrence count O(i): number of baskets containing item i.
  uint64_t ItemCount(ItemId item) const { return item_counts_[item]; }

  /// Empirical marginal p(i) = O(i)/n. Errors if the database is empty.
  StatusOr<double> ItemProbability(ItemId item) const;

  /// True if `basket(row)` contains all of `s` (merge test on sorted rows).
  bool BasketContainsAll(size_t row, const Itemset& s) const;

  /// Sum of basket sizes (number of (basket, item) pairs).
  uint64_t TotalItemOccurrences() const { return total_occurrences_; }

  /// Bytes held by the row store's two arrays, offsets plus ids (feeds the
  /// "mem.rows_bytes" gauge).
  uint64_t RowStoreBytes() const {
    return offsets_.size() * sizeof(uint64_t) + ids_.size() * sizeof(ItemId);
  }

  /// Optional item dictionary; empty names() when generators used raw ids.
  ItemDictionary& dictionary() { return dictionary_; }
  const ItemDictionary& dictionary() const { return dictionary_; }

 private:
  /// Appends a row that is already sorted and duplicate-free.
  Status AppendSortedRow(std::span<const ItemId> items);

  ItemId num_items_;
  RowOffsets offsets_{0};
  RowIds ids_;
  std::vector<uint64_t> item_counts_;
  uint64_t total_occurrences_ = 0;
  ItemDictionary dictionary_;
};

/// Per-item vertical index: one Bitmap per item over the basket axis.
/// Construction is one pass over the database; afterwards any
/// all-items-present count is an AND/popcount. Appended database rows can
/// be folded in with AppendFrom — the index never needs a full rebuild on
/// delta ingestion.
class VerticalIndex {
 public:
  /// Builds bitmaps for all items of `db`, on `pool` when given: blocks of
  /// 64-row-aligned rows write disjoint bitmap words, so the bitmaps are
  /// byte-identical for any thread count. The database must not change
  /// afterwards (the index does not track it) except by appending rows,
  /// which AppendFrom catches the index up on.
  explicit VerticalIndex(const TransactionDatabase& db,
                         ThreadPool* pool = nullptr);

  /// Catches the index up with rows appended to `db` since it was built
  /// (or last caught up): `from_row` must equal num_baskets(). Existing
  /// bitmaps grow in place; items beyond the old space gain fresh bitmaps,
  /// so the result is byte-identical to rebuilding from scratch.
  void AppendFrom(const TransactionDatabase& db, size_t from_row);

  size_t num_baskets() const { return num_baskets_; }
  ItemId num_items() const { return static_cast<ItemId>(bitmaps_.size()); }
  const Bitmap& item_bitmap(ItemId item) const;

  /// Words per item bitmap — the unit the mining cost model counts AND
  /// operations in.
  size_t words_per_bitmap() const {
    return bitmaps_.empty() ? 0 : bitmaps_[0].words().size();
  }

  /// Number of baskets containing every item of `s`; s must be non-empty.
  uint64_t CountAllPresent(const Itemset& s) const;

 private:
  size_t num_baskets_;
  std::vector<Bitmap> bitmaps_;
};

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_
