#include "serve/query_cache.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// Index cells before the first doubling.
constexpr size_t kInitialIndexCells = 8;

// splitmix64 finalizer over one packed word, keyed by its position so the
// same word at two positions contributes independent-looking patterns.
inline uint64_t HashWord(size_t position, uint64_t word) {
  uint64_t z = word + 0x9E3779B97F4A7C15ULL * (position + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Tag(uint64_t key_hash) { return key_hash & 0xFFFFFFFFULL; }

}  // namespace

uint64_t HashSide(const VertexSet& side) {
  uint64_t hash = 0;
  for (size_t w = 0; w < PackedWordCount(side.size()); ++w) {
    hash ^= HashWord(w, PackMembers64(side, w));
  }
  return hash;
}

PackedSide PackSide(const VertexSet& side) {
  PackedSide packed;
  packed.words.resize(PackedWordCount(side.size()));
  PackSideWords(side, packed.words);
  return packed;
}

uint64_t PackSideWords(const VertexSet& side, std::span<uint64_t> words) {
  DCS_CHECK_EQ(words.size(), PackedWordCount(side.size()));
  uint64_t hash = 0;
  for (size_t w = 0; w < words.size(); ++w) {
    words[w] = PackMembers64(side, w);
    hash ^= HashWord(w, words[w]);
  }
  return hash;
}

uint64_t HashPackedSide(PackedWords side) {
  uint64_t hash = 0;
  for (size_t w = 0; w < side.size(); ++w) hash ^= HashWord(w, side[w]);
  return hash;
}

CutQueryCache::CutQueryCache(const Options& options)
    : capacity_(options.capacity), index_(kInitialIndexCells, 0) {
  DCS_CHECK_GE(capacity_, 1);
  DCS_CHECK_LE(capacity_, kMaxCapacity);
}

uint32_t CutQueryCache::FindLocked(int64_t object, uint64_t key_hash,
                                   PackedWords side) const {
  const size_t mask = index_.size() - 1;
  const uint64_t tag = Tag(key_hash);
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const uint64_t cell = index_[i];
    if (cell == 0) return kNoSlot;
    if ((cell >> 32) != tag) continue;
    const uint32_t id = static_cast<uint32_t>(cell) - 1;
    const Slot& slot = slots_[id];
    if (slot.key_hash == key_hash && slot.object == object &&
        std::ranges::equal(slot.words, side)) {
      return id;
    }
  }
}

void CutQueryCache::IndexInsert(uint64_t key_hash, uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t i = Tag(key_hash) & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = Tag(key_hash) << 32 | (uint64_t{slot} + 1);
}

void CutQueryCache::IndexErase(uint64_t key_hash, uint32_t slot) {
  const size_t mask = index_.size() - 1;
  const uint64_t target = Tag(key_hash) << 32 | (uint64_t{slot} + 1);
  size_t hole = Tag(key_hash) & mask;
  while (index_[hole] != target) hole = (hole + 1) & mask;
  // Backward shift: pull each later cell of the probe run into the hole
  // unless its home lies cyclically in (hole, j], where the move would
  // put it before its home.
  for (size_t j = (hole + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    const size_t home = (index_[j] >> 32) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void CutQueryCache::GrowIndex() {
  index_.assign(index_.size() * 2, 0);
  for (size_t id = 0; id < slots_.size(); ++id) {
    IndexInsert(slots_[id].key_hash, static_cast<uint32_t>(id));
  }
}

void CutQueryCache::Unlink(uint32_t slot) {
  Slot& s = slots_[slot];
  (s.prev == kNoSlot ? head_ : slots_[s.prev].next) = s.next;
  (s.next == kNoSlot ? tail_ : slots_[s.next].prev) = s.prev;
}

void CutQueryCache::PushFront(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNoSlot;
  s.next = head_;
  (head_ == kNoSlot ? tail_ : slots_[head_].prev) = slot;
  head_ = slot;
}

void CutQueryCache::MoveToFront(uint32_t slot) {
  if (slot == head_) return;
  Unlink(slot);
  PushFront(slot);
}

std::optional<double> CutQueryCache::Lookup(int64_t object,
                                            uint64_t side_hash,
                                            PackedWords side) {
  const uint64_t key_hash = CacheKeyHash(object, side_hash);
  std::lock_guard<std::mutex> lock(mutex_);
  const uint32_t id = FindLocked(object, key_hash, side);
  if (id == kNoSlot) {
    DCS_METRIC_INC("serve.cache.misses");
    return std::nullopt;
  }
  MoveToFront(id);
  DCS_METRIC_INC("serve.cache.hits");
  return slots_[id].value;
}

void CutQueryCache::Insert(int64_t object, uint64_t side_hash,
                           PackedWords side, double value) {
  const uint64_t key_hash = CacheKeyHash(object, side_hash);
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t id = FindLocked(object, key_hash, side);
  if (id != kNoSlot) {
    // A racing caller already stored this side; cacheable objects are
    // pure, so the values agree — just refresh recency.
    MoveToFront(id);
    return;
  }
  if (static_cast<int64_t>(slots_.size()) < capacity_) {
    if ((slots_.size() + 1) * 2 > index_.size()) GrowIndex();
    id = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    // Full: the least recently used slot takes the new entry, keeping
    // its word storage.
    id = tail_;
    IndexErase(slots_[id].key_hash, id);
    Unlink(id);
    DCS_METRIC_INC("serve.cache.evictions");
  }
  Slot& slot = slots_[id];
  slot.object = object;
  slot.key_hash = key_hash;
  slot.value = value;
  slot.words.assign(side.begin(), side.end());
  IndexInsert(key_hash, id);
  PushFront(id);
}

std::vector<CutQueryCache::SnapshotEntry> CutQueryCache::SnapshotHottest(
    int64_t max_entries) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SnapshotEntry> hottest;
  for (uint32_t id = head_;
       id != kNoSlot && static_cast<int64_t>(hottest.size()) < max_entries;
       id = slots_[id].next) {
    const Slot& slot = slots_[id];
    hottest.push_back(SnapshotEntry{slot.object, {slot.words}, slot.value});
  }
  return hottest;
}

void CutQueryCache::Restore(const std::vector<SnapshotEntry>& entries) {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    Insert(it->object, HashPackedSide(it->side), it->side, it->value);
  }
}

int64_t CutQueryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(slots_.size());
}

}  // namespace dcs
