// CRC32C, the checksum every wire and disk format in the library carries:
// serialization envelopes, RPC bodies, channel frames, segment records and
// trailers, and cache snapshots. One definition, so the formats cannot
// drift apart. The kernel lives with the other dispatched kernels
// (util/simd.h): one SSE4.2 crc32 instruction per 8 bytes on x86-64, the
// slicing-by-8 reference elsewhere; both compute the same function.

#ifndef DCS_UTIL_CHECKSUM_H_
#define DCS_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd.h"

namespace dcs {

inline uint32_t Crc32c(const uint8_t* bytes, size_t size) {
  return simd::Crc32c(bytes, size);
}

inline uint32_t Crc32c(const std::vector<uint8_t>& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

}  // namespace dcs

#endif  // DCS_UTIL_CHECKSUM_H_
