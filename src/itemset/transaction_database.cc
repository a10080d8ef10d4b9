#include "itemset/transaction_database.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "itemset/bitmap.h"

namespace corrmine {

ItemId ItemDictionary::GetOrAdd(const std::string& name) {
  auto [it, inserted] =
      ids_.emplace(name, static_cast<ItemId>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

StatusOr<ItemId> ItemDictionary::Get(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("unknown item name: " + name);
  }
  return it->second;
}

StatusOr<std::string> ItemDictionary::Name(ItemId id) const {
  if (id >= names_.size()) {
    return Status::OutOfRange("item id out of range: " + std::to_string(id));
  }
  return names_[id];
}

TransactionDatabase::TransactionDatabase(ItemId num_items)
    : num_items_(num_items), item_counts_(num_items, 0) {}

TransactionDatabase::TransactionDatabase(const TransactionDatabase& other)
    : num_items_(other.num_items_),
      item_counts_(other.item_counts_),
      total_occurrences_(other.total_occurrences_),
      dictionary_(other.dictionary_) {
  SizeWithSpare(&offsets_, other.offsets_.size());
  std::copy(other.offsets_.begin(), other.offsets_.end(), offsets_.begin());
  SizeWithSpare(&ids_, other.ids_.size());
  std::copy(other.ids_.begin(), other.ids_.end(), ids_.begin());
}

TransactionDatabase TransactionDatabase::FromRows(
    ItemId num_items, RowOffsets offsets, RowIds ids,
    std::vector<uint64_t> item_counts) {
  CORRMINE_CHECK(!offsets.empty() && offsets.front() == 0 &&
                 offsets.back() == ids.size() &&
                 item_counts.size() == num_items)
      << "FromRows: inconsistent CSR arrays";
  TransactionDatabase db(0);
  db.num_items_ = num_items;
  db.total_occurrences_ = ids.size();
  db.offsets_ = std::move(offsets);
  db.ids_ = std::move(ids);
  db.item_counts_ = std::move(item_counts);
  return db;
}

Status TransactionDatabase::AddBasket(std::vector<ItemId> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return AppendSortedRow(items);
}

Status TransactionDatabase::AddBasket(std::span<const ItemId> items) {
  // Rows copied out of another database are already sorted and unique.
  if (std::adjacent_find(items.begin(), items.end(),
                         std::greater_equal<ItemId>()) == items.end()) {
    return AppendSortedRow(items);
  }
  return AddBasket(std::vector<ItemId>(items.begin(), items.end()));
}

Status TransactionDatabase::AppendSortedRow(std::span<const ItemId> items) {
  if (!items.empty() && items.back() >= num_items_) {
    return Status::OutOfRange("basket item id " +
                              std::to_string(items.back()) +
                              " >= num_items " + std::to_string(num_items_));
  }
  // One of this database's own rows must be copied out before the insert
  // below can reallocate under it.
  const std::less<const ItemId*> before;
  if (!items.empty() && !before(items.data(), ids_.data()) &&
      before(items.data(), ids_.data() + ids_.size())) {
    const std::vector<ItemId> copy(items.begin(), items.end());
    return AppendSortedRow(copy);
  }
  for (ItemId item : items) ++item_counts_[item];
  total_occurrences_ += items.size();
  ids_.insert(ids_.end(), items.begin(), items.end());
  offsets_.push_back(ids_.size());
  return Status::OK();
}

Status TransactionDatabase::GrowItemSpace(ItemId num_items) {
  if (num_items < num_items_) {
    return Status::InvalidArgument(
        "item space cannot shrink: " + std::to_string(num_items) + " < " +
        std::to_string(num_items_));
  }
  item_counts_.resize(num_items, 0);
  num_items_ = num_items;
  return Status::OK();
}

StatusOr<double> TransactionDatabase::ItemProbability(ItemId item) const {
  if (item >= num_items_) {
    return Status::OutOfRange("item id out of range");
  }
  if (num_baskets() == 0) {
    return Status::FailedPrecondition("empty database has no marginals");
  }
  return static_cast<double>(item_counts_[item]) /
         static_cast<double>(num_baskets());
}

bool TransactionDatabase::BasketContainsAll(size_t row,
                                            const Itemset& s) const {
  const std::span<const ItemId> row_items = basket(row);
  return std::includes(row_items.begin(), row_items.end(), s.begin(),
                       s.end());
}

namespace {

// Rows per index-build block: a multiple of 64, so blocks own whole bitmap
// words, and small enough that one block's slice of every item bitmap stays
// cache-resident while its rows are scattered into it.
size_t IndexBlockRows(ItemId num_items) {
  constexpr size_t kBlockBytes = 256 * 1024;
  const size_t words =
      kBlockBytes / (std::max<size_t>(num_items, 1) * sizeof(uint64_t));
  return 64 * std::clamp<size_t>(words, 1, 1024);
}

}  // namespace

VerticalIndex::VerticalIndex(const TransactionDatabase& db, ThreadPool* pool)
    : num_baskets_(db.num_baskets()), bitmaps_(db.num_items()) {
  // Zeroing the bitmaps is half the build's memory traffic: spread it (and
  // its page faults) over the pool, a few items per chunk.
  Status status = ParallelFor(pool, bitmaps_.size(), 16,
                              [&](size_t begin, size_t end) {
                                for (size_t i = begin; i < end; ++i) {
                                  bitmaps_[i] = Bitmap(num_baskets_);
                                }
                                return Status::OK();
                              });
  CORRMINE_CHECK(status.ok()) << status.ToString();
  const size_t block_rows = IndexBlockRows(db.num_items());
  const size_t num_blocks = (num_baskets_ + block_rows - 1) / block_rows;
  status = ParallelFor(pool, num_blocks, 1, [&](size_t begin, size_t end) {
    const size_t row_end = std::min(end * block_rows, num_baskets_);
    for (size_t row = begin * block_rows; row < row_end; ++row) {
      for (ItemId item : db.basket(row)) bitmaps_[item].Set(row);
    }
    return Status::OK();
  });
  CORRMINE_CHECK(status.ok()) << status.ToString();
}

void VerticalIndex::AppendFrom(const TransactionDatabase& db,
                               size_t from_row) {
  CORRMINE_CHECK(from_row == num_baskets_)
      << "AppendFrom row gap: index has " << num_baskets_
      << " baskets, caller resumes at " << from_row;
  CORRMINE_CHECK(db.num_baskets() >= from_row)
      << "database shrank under the index";
  num_baskets_ = db.num_baskets();
  for (Bitmap& bitmap : bitmaps_) bitmap.Resize(num_baskets_);
  for (ItemId i = static_cast<ItemId>(bitmaps_.size()); i < db.num_items();
       ++i) {
    bitmaps_.emplace_back(num_baskets_);
  }
  for (size_t row = from_row; row < num_baskets_; ++row) {
    for (ItemId item : db.basket(row)) {
      bitmaps_[item].Set(row);
    }
  }
}

const Bitmap& VerticalIndex::item_bitmap(ItemId item) const {
  CORRMINE_CHECK(item < bitmaps_.size()) << "item id out of range";
  return bitmaps_[item];
}

uint64_t VerticalIndex::CountAllPresent(const Itemset& s) const {
  CORRMINE_CHECK(!s.empty()) << "CountAllPresent requires a non-empty set";
  if (s.size() == 1) return bitmaps_[s.item(0)].Count();
  if (s.size() == 2) {
    return bitmaps_[s.item(0)].AndCount(bitmaps_[s.item(1)]);
  }
  std::vector<const Bitmap*> maps;
  maps.reserve(s.size());
  for (ItemId item : s) maps.push_back(&bitmaps_[item]);
  return MultiAndCount(maps);
}

}  // namespace corrmine
