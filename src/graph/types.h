// Shared graph vocabulary: vertex ids, weighted edges, vertex sets.

#ifndef DCS_GRAPH_TYPES_H_
#define DCS_GRAPH_TYPES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace dcs {

// Vertices are dense integer ids in [0, n).
using VertexId = int;

// A weighted directed edge (for undirected graphs, an edge is stored once
// with src < dst by convention of UndirectedGraph).
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  double weight = 1.0;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
  }
};

// Characteristic vector of a vertex subset S ⊆ V: membership[v] != 0 iff
// v ∈ S. Kept as uint8_t (not vector<bool>) for cheap random access.
using VertexSet = std::vector<uint8_t>;

// Builds a VertexSet over n vertices containing exactly `members`.
// Bounds-checked in every build mode (DCS_CHECK, not DCS_DCHECK): a member
// outside [0, n) aborts instead of writing out of range, and a negative n
// aborts instead of allocating a near-2^64-byte vector.
inline VertexSet MakeVertexSet(int n, const std::vector<VertexId>& members) {
  DCS_CHECK_GE(n, 0);
  VertexSet set(static_cast<size_t>(n), 0);
  for (VertexId v : members) {
    DCS_CHECK(v >= 0 && v < n);
    set[static_cast<size_t>(v)] = 1;
  }
  return set;
}

// Complement of a vertex set. Branch-free: `!x` normalizes any nonzero
// membership byte to 0 and zero to 1 without a conditional.
inline VertexSet ComplementSet(const VertexSet& set) {
  VertexSet complement(set.size());
  for (size_t i = 0; i < set.size(); ++i) {
    complement[i] = static_cast<uint8_t>(!set[i]);
  }
  return complement;
}

// Number of members. Branch-free accumulation of normalized membership
// bits, in 64 bits: a VertexSet's length is a size_t, so a 32-bit
// accumulator would wrap on sets beyond 2^31 vertices.
inline int64_t SetSize(const VertexSet& set) {
  int64_t count = 0;
  for (uint8_t bit : set) count += static_cast<int64_t>(bit != 0);
  return count;
}

// Membership of vertices first … first+7 as bits 0–7 (bit i set iff
// side[first + i] != 0; vertices past the end read as non-members). A full
// run of eight is packed as one word (SWAR): ((x & 0x7F…) + 0x7F…) | x sets
// each byte's top bit iff the byte is nonzero, and the multiply gathers
// those eight top bits into the top byte.
inline uint8_t PackMembers8(const VertexSet& side, size_t first) {
  if (first + 8 > side.size()) {
    uint8_t bits = 0;
    for (size_t v = first; v < side.size(); ++v) {
      bits |= static_cast<uint8_t>((side[v] != 0) << (v - first));
    }
    return bits;
  }
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  uint64_t bytes;
  std::memcpy(&bytes, side.data() + first, sizeof(bytes));
  if constexpr (std::endian::native == std::endian::big) {
    bytes = __builtin_bswap64(bytes);
  }
  const uint64_t top = (((bytes & kLow7) + kLow7) | bytes) & ~kLow7;
  return static_cast<uint8_t>((top * 0x0002040810204081ULL) >> 56);
}

// Words of one bit per vertex, 64 vertices each, over n vertices.
inline size_t PackedWordCount(size_t n) { return (n + 63) / 64; }

// Packed word `w` of `side`: bit i set iff side[64w + i] != 0, eight
// vertices per step (vertices past the end read as non-members).
inline uint64_t PackMembers64(const VertexSet& side, size_t w) {
  const size_t first = w * 64;
  const size_t last = std::min(side.size(), first + 64);
  uint64_t word = 0;
  for (size_t v = first; v < last; v += 8) {
    word |= uint64_t{PackMembers8(side, v)} << (v - first);
  }
  return word;
}

// The inverse onto normalized bytes: side[first + i] = bit i of `bits`, for
// the vertices first … first+7 that exist. A full run of eight is spread as
// one word: broadcast the byte, keep bit i in byte i, and carry each byte's
// bit into its top bit with + 0x7F.
inline void UnpackMembers8(uint8_t bits, size_t first, VertexSet& side) {
  if (first + 8 > side.size()) {
    for (size_t v = first; v < side.size(); ++v) {
      side[v] = static_cast<uint8_t>((bits >> (v - first)) & 1);
    }
    return;
  }
  const uint64_t spread =
      (bits * 0x0101010101010101ULL) & 0x8040201008040201ULL;
  uint64_t bytes =
      ((spread + 0x7F7F7F7F7F7F7F7FULL) >> 7) & 0x0101010101010101ULL;
  if constexpr (std::endian::native == std::endian::big) {
    bytes = __builtin_bswap64(bytes);
  }
  std::memcpy(side.data() + first, &bytes, sizeof(bytes));
}

// True if S is a proper nonempty subset (∅ ⊂ S ⊂ V), i.e. a valid cut side.
inline bool IsProperCutSide(const VertexSet& set) {
  const int64_t size = SetSize(set);
  return size > 0 && size < static_cast<int64_t>(set.size());
}

}  // namespace dcs

#endif  // DCS_GRAPH_TYPES_H_
