#include "core/border.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/phase_scope.h"

namespace corrmine {

CorrelationBorder::CorrelationBorder(std::vector<Itemset> correlated_sets) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  PhaseScope phase(&registry, "border.build");
  registry.GetCounter("border.input_sets")->Add(correlated_sets.size());
  // Sort by size so any proper subset precedes its supersets; keep a set
  // only if no already-kept set is contained in it.
  std::sort(correlated_sets.begin(), correlated_sets.end(),
            [](const Itemset& a, const Itemset& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  correlated_sets.erase(
      std::unique(correlated_sets.begin(), correlated_sets.end()),
      correlated_sets.end());
  for (const Itemset& s : correlated_sets) {
    bool minimal = true;
    for (const Itemset& kept : minimal_) {
      if (s.ContainsAll(kept)) {
        minimal = false;
        break;
      }
    }
    if (minimal) minimal_.push_back(s);
  }
  std::sort(minimal_.begin(), minimal_.end());
  registry.GetCounter("border.minimal_sets")->Add(minimal_.size());
}

bool CorrelationBorder::IsAboveBorder(const Itemset& s) const {
  for (const Itemset& kept : minimal_) {
    if (s.ContainsAll(kept)) return true;
  }
  return false;
}

bool CorrelationBorder::IsOnBorder(const Itemset& s) const {
  return std::binary_search(minimal_.begin(), minimal_.end(), s);
}

}  // namespace corrmine
