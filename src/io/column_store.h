#ifndef CORRMINE_IO_COLUMN_STORE_H_
#define CORRMINE_IO_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "itemset/counting_column.h"

namespace corrmine::io {

/// CCS — the column-shard file format (DESIGN.md §12): one ColumnSource
/// (per-item hybrid counting columns over one row space) serialized
/// container-at-a-time for mmap-backed lazy loading. Spill files are read
/// back only by the out-of-core run that wrote them, so there is one
/// version; a file with any other magic is rejected at open:
///
///   "CCS2"                       4-byte magic
///   payload_base                 8-byte LE file offset (4096-aligned)
///   varint num_rows
///   varint num_columns
///   per column:  varint num_containers
///     per container: varint key · 1-byte kind · 1-byte encoding
///                    · varint count
///                    · varint rel_offset (from payload_base, 8-aligned)
///                    · varint payload_bytes
///   zero padding to payload_base
///   payload section              container payloads
///
/// Each container's payload encoding is picked by min-byte rule at write
/// time:
///
///   0  raw           u16 LE array offsets / run pairs, u64 dense words
///   1  delta-varint  EncodeU16DeltaVarint of the u16 payload (arrays:
///                    first offset + gap varints; runs: start deltas +
///                    length varints). Never used for dense words.
///
/// The directory is tiny and parsed eagerly at open; raw payloads are
/// only ever touched through the container views handed to
/// CountingColumn, so the kernel faults pages in at access granularity.
/// Delta-varint payloads decode lazily: the first column(item) access
/// materializes that column's compressed containers (thread-safe via
/// std::once_flag — pass-2 morsels hit one shard from many threads), so
/// an unqueried column still costs nothing beyond its directory entry.
/// payload_base is fixed-width (not varint) so the directory can be
/// sized before the base is known. Offsets are 8-byte aligned: every raw
/// payload type (uint16 arrays/runs, uint64 dense words) reads aligned.
inline constexpr char kColumnShardMagic[4] = {'C', 'C', 'S', '2'};

/// Payload-section alignment (one page), and per-payload alignment.
inline constexpr size_t kColumnShardPageAlign = 4096;
inline constexpr size_t kColumnShardPayloadAlign = 8;

/// Per-container payload encodings (directory byte).
inline constexpr uint8_t kColumnShardEncodingRaw = 0;
inline constexpr uint8_t kColumnShardEncodingDeltaVarint = 1;

/// Byte accounting of one shard write (feeds column.spill_* gauges).
struct ColumnShardWriteStats {
  uint64_t file_bytes = 0;     // whole file, header + padding + payloads
  uint64_t payload_bytes = 0;  // encoded payload bytes actually written
  uint64_t raw_payload_bytes = 0;  // what encoding-0 payloads would cost
};

/// Serializes every column of `source` to `path` (whole-file write;
/// callers must treat a failed write as leaving a partial file behind).
/// Columns are written in item order, containers in key order.
Status WriteColumnShardFile(const ColumnSource& source,
                            const std::string& path,
                            ColumnShardWriteStats* stats = nullptr);

/// A CCS file mapped read-only; implements ColumnSource over
/// view-backed columns whose raw payloads live in the mapping and whose
/// delta-varint payloads decode on first access. The mapping (and
/// therefore every column handed out) lives until destruction; resident
/// cost is whatever pages counting actually touched, and munmap returns
/// them — the out-of-core miner's map → count → unmap cycle keeps its
/// high-water mark near one partition.
class MappedColumnShard : public ColumnSource {
 public:
  static StatusOr<std::unique_ptr<MappedColumnShard>> Open(
      const std::string& path);

  ~MappedColumnShard() override;

  MappedColumnShard(const MappedColumnShard&) = delete;
  MappedColumnShard& operator=(const MappedColumnShard&) = delete;

  size_t num_rows() const override { return num_rows_; }
  ItemId num_columns() const override {
    return static_cast<ItemId>(columns_.size());
  }
  const CountingColumn& column(ItemId item) const override;

  size_t file_bytes() const { return map_len_; }

 private:
  /// One directory record plus its payload location in the mapping.
  struct ContainerEntry {
    uint32_t key = 0;
    CountingColumn::ContainerKind kind = CountingColumn::ContainerKind::kArray;
    uint8_t encoding = kColumnShardEncodingRaw;
    uint32_t count = 0;
    const uint8_t* payload = nullptr;
    size_t payload_bytes = 0;
  };

  /// One column, materialized at most once. unique_ptr because
  /// std::once_flag is immovable. `decoded` owns the u16 buffers for
  /// delta-varint containers; raw containers view the mapping directly.
  struct LazyColumn {
    std::vector<ContainerEntry> entries;
    std::once_flag once;
    std::vector<std::vector<uint16_t>> decoded;
    CountingColumn column;
  };

  MappedColumnShard() = default;

  void* map_ = nullptr;
  size_t map_len_ = 0;
  size_t num_rows_ = 0;
  std::vector<std::unique_ptr<LazyColumn>> columns_;
  CountingColumn empty_;  // items past the stored range
};

}  // namespace corrmine::io

#endif  // CORRMINE_IO_COLUMN_STORE_H_
