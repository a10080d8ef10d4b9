#include "io/chunked_io.h"

#include <fstream>
#include <sstream>

#include "io/binary_io.h"
#include "io/format_detect.h"

namespace corrmine::io {

StatusOr<std::vector<TransactionChunkInfo>> ListTransactionChunks(
    const std::string& bytes) {
  std::vector<TransactionChunkInfo> chunks;
  std::istringstream in(bytes);
  ItemId num_items = 0;
  CORRMINE_RETURN_NOT_OK(DecodeBinaryTransactionStream(
      in, &num_items,
      [&](uint64_t offset, ItemId items, uint64_t baskets) -> Status {
        chunks.push_back({static_cast<size_t>(offset), 0, items, baskets});
        return Status::OK();
      },
      nullptr));
  // The decoder runs to EOF, so each segment ends where the next begins.
  for (size_t i = 0; i < chunks.size(); ++i) {
    const size_t end =
        i + 1 < chunks.size() ? chunks[i + 1].offset : bytes.size();
    chunks[i].size = end - chunks[i].offset;
  }
  return chunks;
}

Status AppendBinaryTransactionChunk(const TransactionDatabase& chunk,
                                    const std::string& path) {
  {
    // An existing file must be binary: appending a segment to a text file
    // would corrupt it, and the sniffing rule (CMB1 prefix) would then
    // misclassify the result.
    std::ifstream probe(path, std::ios::binary);
    if (probe) {
      auto format = DetectTransactionFileFormat(path);
      CORRMINE_RETURN_NOT_OK(format.status());
      if (*format != TransactionFileFormat::kBinary) {
        return Status::InvalidArgument(
            "cannot append a binary chunk to non-binary file " + path);
      }
    }
  }
  std::ofstream file(path, std::ios::binary | std::ios::app);
  if (!file) {
    return Status::IOError("cannot open " + path + " for appending");
  }
  std::string bytes = EncodeBinaryTransactions(chunk);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) {
    return Status::IOError("error appending to " + path);
  }
  return Status::OK();
}

Status RetireOldestTransactionChunks(const std::string& path, size_t drop) {
  CORRMINE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  CORRMINE_ASSIGN_OR_RETURN(std::vector<TransactionChunkInfo> chunks,
                            ListTransactionChunks(bytes));
  if (drop >= chunks.size()) {
    return Status::InvalidArgument(
        "cannot retire " + std::to_string(drop) + " of " +
        std::to_string(chunks.size()) +
        " chunks: a transaction file may not become empty");
  }
  if (drop == 0) return Status::OK();
  return WriteStringToFile(bytes.substr(chunks[drop].offset), path);
}

}  // namespace corrmine::io
