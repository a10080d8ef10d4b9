#include "io/transaction_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/phase_scope.h"
#include "common/string_util.h"
#include "io/binary_io.h"
#include "io/format_detect.h"

namespace corrmine::io {

namespace {

using BasketSink = std::function<Status(std::vector<ItemId>)>;

/// The one text line loop: parses `in` line by line into `sink`, and sets
/// `*num_items` to max id + 1 (0 when no line holds an id).
Status StreamText(std::istream& in, ItemId* num_items, const BasketSink& sink,
                  uint64_t* bytes_consumed) {
  std::string line;
  size_t line_no = 0;
  ItemId max_item_plus_1 = 0;
  uint64_t consumed = 0;
  while (std::getline(in, line)) {
    ++line_no;
    consumed += line.size() + 1;
    CORRMINE_ASSIGN_OR_RETURN(auto basket,
                              ParseTransactionLine(line, line_no));
    if (!basket.has_value()) continue;  // comment line
    for (const ItemId item : *basket) {
      max_item_plus_1 = std::max(max_item_plus_1, item + 1);
    }
    if (bytes_consumed != nullptr) *bytes_consumed = consumed;
    CORRMINE_RETURN_NOT_OK(sink(std::move(*basket)));
  }
  *num_items = max_item_plus_1;
  return Status::OK();
}

/// Sniffs `path` and streams it through the decoder for its format.
Status StreamFile(const std::string& path, TransactionFileFormat* format,
                  ItemId* num_items, const BasketSink& sink,
                  uint64_t* bytes_consumed) {
  CORRMINE_ASSIGN_OR_RETURN(*format, DetectTransactionFileFormat(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  return *format == TransactionFileFormat::kBinary
             ? DecodeBinaryTransactionStream(in, num_items, nullptr, sink,
                                             bytes_consumed)
             : StreamText(in, num_items, sink, bytes_consumed);
}

using Rows = std::vector<std::vector<ItemId>>;

/// A sink that stages each basket in `rows`.
BasketSink StageInto(Rows* rows) {
  return [rows](std::vector<ItemId> basket) {
    rows->push_back(std::move(basket));
    return Status::OK();
  };
}

/// Sizes the row store once, after a stream ended cleanly, and moves the
/// staged rows in. Sizing after the stream, never from a basket mid-stream,
/// keeps a corrupt tail from first allocating counts for a huge early id.
StatusOr<TransactionDatabase> BuildDatabase(Rows rows, ItemId num_items) {
  TransactionDatabase db(std::max<ItemId>(num_items, 1));
  for (std::vector<ItemId>& row : rows) {
    CORRMINE_RETURN_NOT_OK(db.AddBasket(std::move(row)));
  }
  return db;
}

}  // namespace

StatusOr<std::optional<std::vector<ItemId>>> ParseTransactionLine(
    std::string_view line, size_t line_no) {
  std::string_view trimmed = TrimString(line);
  if (!trimmed.empty() && trimmed.front() == '#') {
    return std::optional<std::vector<ItemId>>();
  }
  std::vector<ItemId> basket;
  for (std::string_view token : SplitString(trimmed)) {
    auto value = ParseUint64(token);
    if (!value.ok()) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                value.status().message());
    }
    // The item space holds id + 1, so the largest ItemId is not an id.
    if (*value >= UINT32_MAX) {
      return Status::OutOfRange("line " + std::to_string(line_no) +
                                ": item id too large");
    }
    basket.push_back(static_cast<ItemId>(*value));
  }
  return std::optional<std::vector<ItemId>>(std::move(basket));
}

Status StreamTransactionFile(const std::string& path, ItemId* num_items,
                             const BasketSink& sink,
                             uint64_t* bytes_consumed) {
  TransactionFileFormat format = TransactionFileFormat::kText;
  return StreamFile(path, &format, num_items, sink, bytes_consumed);
}

StatusOr<TransactionDatabase> LoadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint) {
  PhaseScope phase(&MetricsRegistry::Global(), "io.load");
  Rows rows;
  ItemId num_items = 0;
  TransactionFileFormat format = TransactionFileFormat::kText;
  CORRMINE_RETURN_NOT_OK(
      StreamFile(path, &format, &num_items, StageInto(&rows), nullptr));
  // Binary segment headers are authoritative; the hint floors text only.
  if (format == TransactionFileFormat::kText) {
    num_items = std::max(num_items, num_items_hint);
  }
  return BuildDatabase(std::move(rows), num_items);
}

StatusOr<TransactionDatabase> ParseTransactions(const std::string& text,
                                                ItemId num_items_hint) {
  Rows rows;
  ItemId num_items = 0;
  std::istringstream in(text);
  CORRMINE_RETURN_NOT_OK(
      StreamText(in, &num_items, StageInto(&rows), nullptr));
  return BuildDatabase(std::move(rows), std::max(num_items, num_items_hint));
}

StatusOr<TransactionDatabase> DecodeBinaryTransactions(
    const std::string& bytes) {
  Rows rows;
  ItemId num_items = 0;
  std::istringstream in(bytes);
  CORRMINE_RETURN_NOT_OK(DecodeBinaryTransactionStream(
      in, &num_items, nullptr, StageInto(&rows)));
  return BuildDatabase(std::move(rows), num_items);
}

Status WriteTransactionFile(const TransactionDatabase& db,
                            const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    const std::vector<ItemId>& basket = db.basket(row);
    for (size_t i = 0; i < basket.size(); ++i) {
      if (i > 0) file << ' ';
      file << basket[i];
    }
    file << '\n';
  }
  file.flush();
  if (!file) {
    return Status::IOError("error writing " + path);
  }
  return Status::OK();
}

StatusOr<TransactionDatabase> ParseNamedTransactions(const std::string& text) {
  // Two passes: intern the vocabulary, then build the database with the
  // final item-space size.
  ItemDictionary dict;
  std::vector<std::vector<ItemId>> baskets;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    std::string_view trimmed = TrimString(line);
    if (!trimmed.empty() && trimmed.front() == '#') continue;
    std::vector<ItemId> basket;
    for (std::string_view token : SplitString(trimmed)) {
      basket.push_back(dict.GetOrAdd(std::string(token)));
    }
    baskets.push_back(std::move(basket));
  }
  TransactionDatabase db(
      static_cast<ItemId>(dict.size() == 0 ? 1 : dict.size()));
  db.dictionary() = std::move(dict);
  for (auto& basket : baskets) {
    CORRMINE_RETURN_NOT_OK(db.AddBasket(std::move(basket)));
  }
  return db;
}

}  // namespace corrmine::io
