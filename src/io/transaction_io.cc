#include "io/transaction_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
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

/// Text rows staged in CSR form until the stream ends and the item space
/// is known.
struct StagedRows {
  RowOffsets offsets{0};
  RowIds ids;

  void Add(std::vector<ItemId> basket) {
    std::sort(basket.begin(), basket.end());
    basket.erase(std::unique(basket.begin(), basket.end()), basket.end());
    ids.insert(ids.end(), basket.begin(), basket.end());
    offsets.push_back(ids.size());
  }
};

/// A sink that stages each basket in `rows`.
BasketSink StageInto(StagedRows* rows) {
  return [rows](std::vector<ItemId> basket) {
    rows->Add(std::move(basket));
    return Status::OK();
  };
}

/// Sizes the row store once, after a stream ended cleanly, and adopts the
/// staged rows. Sizing after the stream, never from a basket mid-stream,
/// keeps a corrupt tail from first allocating counts for a huge early id.
/// Every staged id is below `num_items`.
TransactionDatabase BuildDatabase(StagedRows rows, ItemId num_items) {
  num_items = std::max<ItemId>(num_items, 1);
  std::vector<uint64_t> counts(num_items, 0);
  for (const ItemId item : rows.ids) ++counts[item];
  return TransactionDatabase::FromRows(num_items, std::move(rows.offsets),
                                       std::move(rows.ids), std::move(counts));
}

/// A read-only file mapping, unmapped on destruction.
class MappedBytes {
 public:
  MappedBytes(void* data, size_t len) : data_(data), len_(len) {}
  ~MappedBytes() { ::munmap(data_, len_); }
  MappedBytes(const MappedBytes&) = delete;
  MappedBytes& operator=(const MappedBytes&) = delete;

  std::string_view view() const {
    return {static_cast<const char*>(data_), len_};
  }

 private:
  void* data_;
  size_t len_;
};

/// Maps `path` read-only and decodes it with DecodeBinaryRows. The mapping
/// is gone when this returns.
StatusOr<TransactionDatabase> LoadBinaryFile(const std::string& path,
                                             ThreadPool* pool,
                                             uint64_t* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  flags |= MAP_POPULATE;  // one call maps every page the scan will read
#endif
  void* map = ::mmap(nullptr, len, PROT_READ, flags, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) return Status::IOError("cannot map " + path);
  *bytes = len;
  const MappedBytes mapped(map, len);
  return DecodeBinaryRows(mapped.view(), pool);
}

/// Phase "io.load" plus its work counters: input bytes decoded and baskets
/// loaded, both in MetricsRegistry::Global().
StatusOr<TransactionDatabase> TimedLoad(
    const std::function<StatusOr<TransactionDatabase>(uint64_t* bytes)>&
        load) {
  PhaseScope phase(&MetricsRegistry::Global(), "io.load");
  uint64_t bytes = 0;
  auto db = load(&bytes);
  if (db.ok()) {
    MetricsRegistry::Global().GetCounter("io.load.bytes")->Add(bytes);
    MetricsRegistry::Global()
        .GetCounter("io.load.baskets")
        ->Add(db->num_baskets());
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
  CORRMINE_ASSIGN_OR_RETURN(const TransactionFileFormat format,
                            DetectTransactionFileFormat(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  return format == TransactionFileFormat::kBinary
             ? DecodeBinaryTransactionStream(in, num_items, nullptr, sink,
                                             bytes_consumed)
             : StreamText(in, num_items, sink, bytes_consumed);
}

StatusOr<TransactionDatabase> LoadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint,
                                                  ThreadPool* pool) {
  return TimedLoad([&](uint64_t* bytes) -> StatusOr<TransactionDatabase> {
    CORRMINE_ASSIGN_OR_RETURN(const TransactionFileFormat format,
                              DetectTransactionFileFormat(path));
    if (format == TransactionFileFormat::kBinary) {
      return LoadBinaryFile(path, pool, bytes);
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open " + path);
    StagedRows rows;
    ItemId num_items = 0;
    CORRMINE_RETURN_NOT_OK(
        StreamText(in, &num_items, StageInto(&rows), nullptr));
    std::error_code ec;
    *bytes = std::filesystem::file_size(path, ec);
    // Binary segment headers are authoritative; the hint floors text only.
    return BuildDatabase(std::move(rows), std::max(num_items, num_items_hint));
  });
}

StatusOr<TransactionDatabase> LoadNamedTransactionFile(
    const std::string& path) {
  return TimedLoad([&](uint64_t* bytes) -> StatusOr<TransactionDatabase> {
    CORRMINE_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
    *bytes = text.size();
    return ParseNamedTransactions(text);
  });
}

StatusOr<TransactionDatabase> ParseTransactions(const std::string& text,
                                                ItemId num_items_hint) {
  StagedRows rows;
  ItemId num_items = 0;
  std::istringstream in(text);
  CORRMINE_RETURN_NOT_OK(
      StreamText(in, &num_items, StageInto(&rows), nullptr));
  return BuildDatabase(std::move(rows), std::max(num_items, num_items_hint));
}

StatusOr<TransactionDatabase> DecodeBinaryTransactions(
    const std::string& bytes, ThreadPool* pool) {
  return DecodeBinaryRows(bytes, pool);
}

Status WriteTransactionFile(const TransactionDatabase& db,
                            const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    const std::span<const ItemId> basket = db.basket(row);
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
  // Ids are final as soon as a token is interned; only the item space waits
  // for the last line.
  ItemDictionary dict;
  StagedRows rows;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    std::string_view trimmed = TrimString(line);
    if (!trimmed.empty() && trimmed.front() == '#') continue;
    std::vector<ItemId> basket;
    for (std::string_view token : SplitString(trimmed)) {
      basket.push_back(dict.GetOrAdd(std::string(token)));
    }
    rows.Add(std::move(basket));
  }
  TransactionDatabase db =
      BuildDatabase(std::move(rows), static_cast<ItemId>(dict.size()));
  db.dictionary() = std::move(dict);
  return db;
}

}  // namespace corrmine::io
