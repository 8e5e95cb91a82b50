// LRU memoization cache for cut-query answers.
//
// The serving layer (cut_query_service.h) answers repeated queries for the
// same (object, cut side) from this cache instead of re-running the O(m)
// cut evaluation. Keys are canonical: a VertexSet stores membership as
// "any nonzero byte", so two byte-wise different vectors can denote the
// same side — the cache therefore keys on (object id, normalized bit-packed
// side) and hashes the side with one 64-bit mix per packed word.
//
// Hash collisions are survivable, not assumed away: every probe compares
// the stored packed side for equality, so a hit always returns the value
// that was inserted for exactly that side (the serving layer's bit-identity
// guarantee rests on this).
//
// Layout: entries live in one array of slots, chained in exact LRU order
// by 32-bit prev/next slot ids, and an open-addressing index (linear
// probing) maps key hashes to slot ids. The index starts at a few cells
// and doubles whenever it would pass half full, so its size follows the
// entries, not the capacity; an erase closes its gap by backward shift,
// so there are no tombstones. A full cache evicts its least recently used
// slot and hands that slot to the new entry, reusing its word storage: once
// every slot has held a side of the size being inserted, an insert
// allocates nothing. An entry costs about 100 bytes at one packed word:
// the 56-byte slot, the word's 32-byte heap block and 8–16 bytes of index.
//
// Concurrency: one mutex guards the slots and the index, so concurrent
// AnswerBatch callers may share a cache. Capacity is exact: an insert past
// it evicts the least recently used entry.
//
// Metrics (DESIGN.md §8/§10): serve.cache.hits, serve.cache.misses,
// serve.cache.evictions.

#ifndef DCS_SERVE_QUERY_CACHE_H_
#define DCS_SERVE_QUERY_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/types.h"

namespace dcs {

// The words of a packed side (see PackedSide), as the cache compares them.
using PackedWords = std::span<const uint64_t>;

// A cut side in canonical form: one bit per vertex (membership normalized
// to 0/1), packed 64 per word. Equality is exact side equality.
struct PackedSide {
  std::vector<uint64_t> words;

  operator PackedWords() const { return words; }

  friend bool operator==(const PackedSide& a, const PackedSide& b) {
    return a.words == b.words;
  }
};

// Canonical side hash: one splitmix64 finalizer per packed word, keyed by
// the word's position, XORed together. Depends only on membership (not on
// the VertexSet's byte values) and on the word count.
uint64_t HashSide(const VertexSet& side);

// Normalizes a VertexSet into its packed canonical form.
PackedSide PackSide(const VertexSet& side);

// Pack + hash into caller storage: writes the canonical form of `side`
// into `words` (exactly PackedWordCount(side.size()) of them) and returns
// HashSide(side), eight vertices per step and one mix per word. The
// serving path packs each query into per-batch scratch this way.
uint64_t PackSideWords(const VertexSet& side, std::span<uint64_t> words);

// HashSide over a side already in packed canonical form. Agrees with
// HashSide/PackSideWords for the side the words pack — the cache-snapshot
// restore path recomputes hashes with this.
uint64_t HashPackedSide(PackedWords side);

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
  // Slot ids are 32-bit, so at most this many entries.
  static constexpr int64_t kMaxCapacity = (int64_t{1} << 31) - 1;

  struct Options {
    // Entry budget, in [1, kMaxCapacity]. Nothing is allocated for it up
    // front: slots and index grow with the entries.
    int64_t capacity = 1 << 16;
  };

  explicit CutQueryCache(const Options& options);

  CutQueryCache(const CutQueryCache&) = delete;
  CutQueryCache& operator=(const CutQueryCache&) = delete;

  // Returns the cached value for (object, side) and refreshes its LRU
  // position, or nullopt. `side_hash` must be HashPackedSide(side).
  std::optional<double> Lookup(int64_t object, uint64_t side_hash,
                               PackedWords side);

  // Inserts (or refreshes) the value for (object, side), evicting the
  // least-recently-used entry when full. A concurrent duplicate insert
  // refreshes recency instead of double-storing.
  void Insert(int64_t object, uint64_t side_hash, PackedWords side,
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
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  struct Slot {
    int64_t object = 0;
    uint64_t key_hash = 0;
    double value = 0;
    uint32_t prev = kNoSlot;  // toward the most recently used
    uint32_t next = kNoSlot;  // toward the least recently used
    std::vector<uint64_t> words;
  };

  // Index cells: 0 is empty, else (low 32 bits of the key hash) << 32 |
  // (slot id + 1). The hash half picks the home cell and filters probes
  // without touching the slot.
  uint32_t FindLocked(int64_t object, uint64_t key_hash,
                      PackedWords side) const;
  void IndexInsert(uint64_t key_hash, uint32_t slot);
  void IndexErase(uint64_t key_hash, uint32_t slot);
  void GrowIndex();
  void Unlink(uint32_t slot);
  void PushFront(uint32_t slot);
  void MoveToFront(uint32_t slot);

  const int64_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;  // every slot holds a live entry
  uint32_t head_ = kNoSlot;  // most recently used
  uint32_t tail_ = kNoSlot;  // least recently used
  std::vector<uint64_t> index_;  // power-of-two cell count
};

}  // namespace dcs

#endif  // DCS_SERVE_QUERY_CACHE_H_
