// FNV-1a-32, the checksum every wire and disk format in the library carries:
// serialization envelopes, RPC bodies, channel frames, segment records and
// trailers, and cache snapshots. One definition, so the formats cannot
// drift apart.

#ifndef DCS_UTIL_CHECKSUM_H_
#define DCS_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcs {

inline uint32_t Fnv1a32(const uint8_t* bytes, size_t size) {
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 16777619u;
  }
  return hash;
}

inline uint32_t Fnv1a32(const std::vector<uint8_t>& bytes) {
  return Fnv1a32(bytes.data(), bytes.size());
}

}  // namespace dcs

#endif  // DCS_UTIL_CHECKSUM_H_
