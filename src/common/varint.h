#ifndef CORRMINE_COMMON_VARINT_H_
#define CORRMINE_COMMON_VARINT_H_

#include <cstdint>
#include <string>

namespace corrmine {

/// Unsigned LEB128: seven bits per byte, low groups first, the high bit set
/// on every byte but the last. The one encoder and the one decode rule of
/// every binary format here (CMB1 baskets, CBS1 snapshots, CCS shards).
inline void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

/// Decodes one varint from `next(&byte)`, which yields the next input byte
/// or returns false at end of input, into `*value`. Returns null on
/// success, else why the bytes are corrupt: truncation, or an encoding past
/// 64 bits (a 10th byte must be 0 or 1, with no continuation bit). Callers
/// wrap the reason in a Corruption status only on that error path.
template <typename NextByte>
const char* DecodeVarint(NextByte&& next, uint64_t* value) {
  uint8_t byte = 0;
  if (!next(&byte)) return "truncated varint";
  *value = byte & 0x7f;
  for (int shift = 7; (byte & 0x80) != 0; shift += 7) {
    if (!next(&byte)) return "truncated varint";
    if (shift == 63 && byte > 1) return "varint overflow";
    *value |= static_cast<uint64_t>(byte & 0x7f) << shift;
  }
  return nullptr;
}

}  // namespace corrmine

#endif  // CORRMINE_COMMON_VARINT_H_
