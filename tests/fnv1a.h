// FNV-1a-32, kept for the tests only. The library's formats carried it
// until CRC32C replaced it (util/checksum.h); the tests still need it to
// build byte images in the older layouts and to fingerprint golden byte
// streams and answer vectors whose pinned values were recorded with it.

#ifndef DCS_TESTS_FNV1A_H_
#define DCS_TESTS_FNV1A_H_

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

#endif  // DCS_TESTS_FNV1A_H_
