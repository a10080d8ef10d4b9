#include "core/interest.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace corrmine {

namespace {

CellInterest MakeCellInterest(const ContingencyTable& table, uint32_t mask) {
  CellInterest cell;
  cell.mask = mask;
  cell.observed = table.Observed(mask);
  cell.expected = table.Expected(mask);
  if (cell.expected > 0.0) {
    cell.interest = static_cast<double>(cell.observed) / cell.expected;
    double diff = static_cast<double>(cell.observed) - cell.expected;
    cell.contribution = diff * diff / cell.expected;
  } else {
    cell.interest = cell.observed == 0
                        ? 1.0
                        : std::numeric_limits<double>::infinity();
    cell.contribution =
        cell.observed == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return cell;
}

}  // namespace

std::vector<CellInterest> ComputeCellInterests(const ContingencyTable& table) {
  std::vector<CellInterest> cells;
  cells.reserve(table.num_cells());
  for (uint32_t mask = 0; mask < table.num_cells(); ++mask) {
    cells.push_back(MakeCellInterest(table, mask));
  }
  return cells;
}

CellInterest MajorDependenceCell(const ContingencyTable& table) {
  CellInterest best = MakeCellInterest(table, 0);
  for (uint32_t mask = 1; mask < table.num_cells(); ++mask) {
    CellInterest cell = MakeCellInterest(table, mask);
    if (cell.contribution > best.contribution) best = cell;
  }
  return best;
}

CellInterest MostExtremeInterestCell(const ContingencyTable& table) {
  CellInterest best = MakeCellInterest(table, 0);
  double best_distance = std::fabs(best.interest - 1.0);
  for (uint32_t mask = 1; mask < table.num_cells(); ++mask) {
    CellInterest cell = MakeCellInterest(table, mask);
    double distance = std::fabs(cell.interest - 1.0);
    if (distance > best_distance) {
      best = cell;
      best_distance = distance;
    }
  }
  return best;
}

std::string FormatCellPattern(const Itemset& s, uint32_t mask,
                              const ItemDictionary* dict) {
  std::string out = "{";
  for (size_t j = 0; j < s.size(); ++j) {
    if (j > 0) out += ", ";
    if (!((mask >> j) & 1)) out += '!';
    const ItemId item = s.item(j);
    if (dict != nullptr && item < dict->size()) {
      out += dict->names()[item];
    } else {
      out += 'i';
      out += std::to_string(item);
    }
  }
  out += '}';
  return out;
}

}  // namespace corrmine
