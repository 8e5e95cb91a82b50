// LRU memoization cache for cut-query answers.
//
// The serving layer (cut_query_service.h) answers repeated queries for the
// same (object, cut side) from this cache instead of re-running the O(m)
// cut evaluation. Keys are canonical: a VertexSet stores membership as
// "any nonzero byte", so two byte-wise different vectors can denote the
// same side — the cache therefore keys on (object id, normalized bit-packed
// side) and hashes the side as the XOR of per-member vertex hashes, so
// flipping vertex v updates a side's hash with one XOR instead of a
// rescan.
//
// Hash collisions are survivable, not assumed away: every probe compares
// the stored packed side for equality, so a hit always returns the value
// that was inserted for exactly that side (the serving layer's bit-identity
// guarantee rests on this).
//
// Concurrency: one mutex guards the LRU list and its hash index, so
// concurrent AnswerBatch callers may share a cache. Capacity is exact:
// an insert past it evicts the least recently used entries.
//
// Metrics (DESIGN.md §8/§10): serve.cache.hits, serve.cache.misses,
// serve.cache.evictions.

#ifndef DCS_SERVE_QUERY_CACHE_H_
#define DCS_SERVE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/types.h"

namespace dcs {

// A cut side in canonical form: one bit per vertex (membership normalized
// to 0/1), packed 64 per word. Equality is exact side equality.
struct PackedSide {
  std::vector<uint64_t> words;

  friend bool operator==(const PackedSide& a, const PackedSide& b) {
    return a.words == b.words;
  }
};

// splitmix64-finalizer hash of one vertex id. Each vertex gets an
// independent-looking 64-bit pattern, so the XOR over a set's members is a
// high-quality set hash that updates incrementally under membership flips.
inline uint64_t HashVertex(VertexId v) {
  uint64_t z = static_cast<uint64_t>(v) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Canonical side hash: XOR of HashVertex over members. Independent of the
// VertexSet's byte values (only membership matters) and of vertex order.
uint64_t HashSide(const VertexSet& side);

// Normalizes a VertexSet into its packed canonical form.
PackedSide PackSide(const VertexSet& side);

// Pack + hash: fills `packed` with the canonical form of `side` (reusing
// its existing word storage when the size matches), eight vertices per
// step, and returns HashSide(side) computed from the packed words. The
// serving fast path calls this once per query into per-batch scratch
// instead of allocating a fresh PackedSide and walking the side's bytes
// twice.
uint64_t PackSideInto(const VertexSet& side, PackedSide& packed);

// HashSide over a side already in packed canonical form (XOR of HashVertex
// over the set bits). Agrees with HashSide/PackSideInto for the side the
// words pack — the cache-snapshot restore path recomputes hashes with this.
uint64_t HashPackedSide(const PackedSide& side);

// Combines an object id into a side hash to form the cache key hash. The
// finalizer decorrelates objects: without it, the same side under two
// objects would land in the same bucket, making cross-object workloads
// collide systematically.
inline uint64_t CacheKeyHash(int64_t object, uint64_t side_hash) {
  uint64_t z = side_hash +
               0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(object) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 31);
}

// The LRU cache. Thread-safe; all methods may be called concurrently.
class CutQueryCache {
 public:
  struct Options {
    // Entry budget, at least 1.
    int64_t capacity = 1 << 16;
  };

  explicit CutQueryCache(const Options& options);

  CutQueryCache(const CutQueryCache&) = delete;
  CutQueryCache& operator=(const CutQueryCache&) = delete;

  // Returns the cached value for (object, side) and refreshes its LRU
  // position, or nullopt. `side_hash` must be HashSide of the side that
  // `side` packs (callers maintain it incrementally).
  std::optional<double> Lookup(int64_t object, uint64_t side_hash,
                               const PackedSide& side);

  // Inserts (or refreshes) the value for (object, side), evicting the
  // least-recently-used entries when over budget. A concurrent duplicate
  // insert refreshes recency instead of double-storing.
  void Insert(int64_t object, uint64_t side_hash, const PackedSide& side,
              double value);

  // Current number of entries.
  int64_t size() const;

  // One cache entry in portable form, for persisting across restarts
  // (store/cache_snapshot.h). Hashes are recomputed on restore, so a
  // snapshot is valid even if the hash function changes between builds.
  struct SnapshotEntry {
    int64_t object = 0;
    PackedSide side;
    double value = 0;
  };

  // Up to `max_entries` entries, hottest first (MRU order).
  std::vector<SnapshotEntry> SnapshotHottest(int64_t max_entries) const;

  // Re-inserts snapshot entries (recomputing hashes). Iterates in reverse
  // so the snapshot's hottest entry ends up most recently used.
  void Restore(const std::vector<SnapshotEntry>& entries);

 private:
  struct Entry {
    int64_t object = 0;
    uint64_t key_hash = 0;
    PackedSide side;
    double value = 0;
  };
  // front = most recently used.
  using LruList = std::list<Entry>;

  const int64_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;
  std::unordered_multimap<uint64_t, LruList::iterator> index_;
};

}  // namespace dcs

#endif  // DCS_SERVE_QUERY_CACHE_H_
