#include "serve/query_cache.h"

#include <iterator>

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {

uint64_t HashSide(const VertexSet& side) {
  uint64_t hash = 0;
  for (size_t v = 0; v < side.size(); ++v) {
    if (side[v]) hash ^= HashVertex(static_cast<VertexId>(v));
  }
  return hash;
}

PackedSide PackSide(const VertexSet& side) {
  PackedSide packed;
  PackSideInto(side, packed);
  return packed;
}

uint64_t PackSideInto(const VertexSet& side, PackedSide& packed) {
  packed.words.assign((side.size() + 63) / 64, 0);
  for (size_t first = 0; first < side.size(); first += 8) {
    packed.words[first / 64] |= uint64_t{PackMembers8(side, first)}
                                << (first % 64);
  }
  return HashPackedSide(packed);
}

uint64_t HashPackedSide(const PackedSide& side) {
  uint64_t hash = 0;
  for (size_t w = 0; w < side.words.size(); ++w) {
    uint64_t word = side.words[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      hash ^= HashVertex(static_cast<VertexId>(w * 64 + bit));
      word &= word - 1;
    }
  }
  return hash;
}

CutQueryCache::CutQueryCache(const Options& options)
    : capacity_(options.capacity) {
  DCS_CHECK_GE(capacity_, 1);
}

std::optional<double> CutQueryCache::Lookup(int64_t object,
                                            uint64_t side_hash,
                                            const PackedSide& side) {
  const uint64_t key_hash = CacheKeyHash(object, side_hash);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, end] = index_.equal_range(key_hash);
  for (; it != end; ++it) {
    const LruList::iterator entry = it->second;
    if (entry->object == object && entry->side == side) {
      lru_.splice(lru_.begin(), lru_, entry);
      DCS_METRIC_INC("serve.cache.hits");
      return entry->value;
    }
  }
  DCS_METRIC_INC("serve.cache.misses");
  return std::nullopt;
}

void CutQueryCache::Insert(int64_t object, uint64_t side_hash,
                           const PackedSide& side, double value) {
  const uint64_t key_hash = CacheKeyHash(object, side_hash);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, end] = index_.equal_range(key_hash);
  for (; it != end; ++it) {
    const LruList::iterator entry = it->second;
    if (entry->object == object && entry->side == side) {
      // A racing caller already stored this side; cacheable objects are
      // pure, so the values agree — just refresh recency.
      lru_.splice(lru_.begin(), lru_, entry);
      return;
    }
  }
  lru_.push_front(Entry{object, key_hash, side, value});
  index_.emplace(key_hash, lru_.begin());
  while (static_cast<int64_t>(lru_.size()) > capacity_) {
    const LruList::iterator victim = std::prev(lru_.end());
    auto [vit, vend] = index_.equal_range(victim->key_hash);
    for (; vit != vend; ++vit) {
      if (vit->second == victim) {
        index_.erase(vit);
        break;
      }
    }
    lru_.pop_back();
    DCS_METRIC_INC("serve.cache.evictions");
  }
}

std::vector<CutQueryCache::SnapshotEntry> CutQueryCache::SnapshotHottest(
    int64_t max_entries) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SnapshotEntry> hottest;
  for (const Entry& entry : lru_) {
    if (static_cast<int64_t>(hottest.size()) >= max_entries) break;
    hottest.push_back(SnapshotEntry{entry.object, entry.side, entry.value});
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
  return static_cast<int64_t>(lru_.size());
}

}  // namespace dcs
