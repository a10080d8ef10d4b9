#include "hash/itemset_set.h"

#include <algorithm>

namespace corrmine::hash {

bool ItemsetPerfectSet::Insert(Itemset s) {
  if (Find(s.items()).has_value()) return false;
  const uint64_t key = s.Hash();
  itemsets_.push_back(std::move(s));
  if (table_.Contains(key)) {
    overflow_.push_back(itemsets_.size() - 1);
  } else {
    table_.Insert(key, itemsets_.size() - 1);
  }
  return true;
}

std::optional<size_t> ItemsetPerfectSet::Find(
    std::span<const ItemId> items) const {
  auto matches = [&](size_t idx) {
    const std::vector<ItemId>& stored = itemsets_[idx].items();
    return std::equal(stored.begin(), stored.end(), items.begin(),
                      items.end());
  };
  std::optional<uint64_t> hit = table_.Find(Itemset::HashItems(items));
  if (!hit.has_value()) return std::nullopt;
  if (matches(*hit)) return *hit;
  for (size_t idx : overflow_) {
    if (matches(idx)) return idx;
  }
  return std::nullopt;
}

void ItemsetPerfectSet::Clear() {
  table_ = DynamicPerfectHash();
  itemsets_.clear();
  overflow_.clear();
}

}  // namespace corrmine::hash
