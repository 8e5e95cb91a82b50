// Striped LRU memoization cache for cut-query answers.
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
// Concurrency: entries are sharded into power-of-two stripes by key hash;
// each stripe is an independently locked LRU list + hash index, so batch
// shards running on different threads rarely contend on one mutex.
// Capacity is enforced per stripe (capacity/stripes each), which bounds
// total size while keeping eviction decisions lock-local.
//
// Metrics (DESIGN.md §8/§10): serve.cache.hits, serve.cache.misses,
// serve.cache.evictions.

#ifndef DCS_SERVE_QUERY_CACHE_H_
#define DCS_SERVE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
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
// serving fast path calls this once per query into per-shard scratch
// instead of allocating a fresh PackedSide and walking the side's bytes
// twice.
uint64_t PackSideInto(const VertexSet& side, PackedSide& packed);

// HashSide over a side already in packed canonical form (XOR of HashVertex
// over the set bits). Agrees with HashSide/PackSideInto for the side the
// words pack — the cache-snapshot restore path recomputes hashes with this.
uint64_t HashPackedSide(const PackedSide& side);

// Combines an object id into a side hash to form the cache key hash. The
// finalizer decorrelates objects: without it, the same side under two
// objects would land in the same stripe and bucket, making cross-object
// workloads contend systematically.
inline uint64_t CacheKeyHash(int64_t object, uint64_t side_hash) {
  uint64_t z = side_hash +
               0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(object) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 31);
}

// The striped LRU cache. Thread-safe; all methods may be called
// concurrently.
class CutQueryCache {
 public:
  struct Options {
    // Total entry budget across all stripes (enforced as capacity/stripes
    // per stripe, at least 1 each).
    int64_t capacity = 1 << 16;
    // Number of lock stripes; rounded up to a power of two, at least 1.
    int num_stripes = 8;
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
  // stripe's least-recently-used entries when over budget. A concurrent
  // duplicate insert refreshes recency instead of double-storing.
  void Insert(int64_t object, uint64_t side_hash, const PackedSide& side,
              double value);

  // Current number of entries (sums stripes; a racing snapshot).
  int64_t size() const;

  // One cache entry in portable form, for persisting across restarts
  // (store/cache_snapshot.h). Hashes are recomputed on restore, so a
  // snapshot is valid even if the hash function changes between builds.
  struct SnapshotEntry {
    int64_t object = 0;
    PackedSide side;
    double value = 0;
  };

  // Up to `max_entries` entries, hottest first (per-stripe MRU order,
  // round-robin merged across stripes so every stripe's hottest entries
  // survive a truncated snapshot).
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

  // alignas(64): stripes are the contention points of the whole serving
  // layer; starting each on its own cache line keeps one stripe's mutex
  // traffic from invalidating its neighbors' lines (the stripes are
  // individually heap-allocated, but allocators routinely pack small
  // objects 16-byte apart).
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    LruList lru;
    std::unordered_multimap<uint64_t, LruList::iterator> index;
  };

  Stripe& StripeFor(uint64_t key_hash) {
    return *stripes_[static_cast<size_t>(key_hash) & stripe_mask_];
  }

  int64_t per_stripe_capacity_;
  size_t stripe_mask_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace dcs

#endif  // DCS_SERVE_QUERY_CACHE_H_
