#include "serve/query_cache.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {
namespace {

size_t RoundUpToPowerOfTwo(int value) {
  size_t power = 1;
  while (power < static_cast<size_t>(std::max(1, value))) power <<= 1;
  return power;
}

}  // namespace

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

CutQueryCache::CutQueryCache(const Options& options) {
  DCS_CHECK_GE(options.capacity, 1);
  const size_t num_stripes = RoundUpToPowerOfTwo(options.num_stripes);
  stripe_mask_ = num_stripes - 1;
  per_stripe_capacity_ =
      std::max<int64_t>(1, options.capacity / static_cast<int64_t>(num_stripes));
  stripes_.reserve(num_stripes);
  for (size_t s = 0; s < num_stripes; ++s) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::optional<double> CutQueryCache::Lookup(int64_t object,
                                            uint64_t side_hash,
                                            const PackedSide& side) {
  const uint64_t key_hash = CacheKeyHash(object, side_hash);
  Stripe& stripe = StripeFor(key_hash);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [it, end] = stripe.index.equal_range(key_hash);
  for (; it != end; ++it) {
    const LruList::iterator entry = it->second;
    if (entry->object == object && entry->side == side) {
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, entry);
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
  Stripe& stripe = StripeFor(key_hash);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [it, end] = stripe.index.equal_range(key_hash);
  for (; it != end; ++it) {
    const LruList::iterator entry = it->second;
    if (entry->object == object && entry->side == side) {
      // A racing shard already stored this side; cacheable objects are
      // pure, so the values agree — just refresh recency.
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, entry);
      return;
    }
  }
  stripe.lru.push_front(Entry{object, key_hash, side, value});
  stripe.index.emplace(key_hash, stripe.lru.begin());
  while (static_cast<int64_t>(stripe.lru.size()) > per_stripe_capacity_) {
    const LruList::iterator victim = std::prev(stripe.lru.end());
    auto [vit, vend] = stripe.index.equal_range(victim->key_hash);
    for (; vit != vend; ++vit) {
      if (vit->second == victim) {
        stripe.index.erase(vit);
        break;
      }
    }
    stripe.lru.pop_back();
    DCS_METRIC_INC("serve.cache.evictions");
  }
}

std::vector<CutQueryCache::SnapshotEntry> CutQueryCache::SnapshotHottest(
    int64_t max_entries) const {
  // Copy each stripe's LRU order under its lock, then interleave: taking
  // one entry per stripe per round means a truncated snapshot still keeps
  // the hottest entries of *every* stripe rather than draining stripe 0.
  std::vector<std::vector<SnapshotEntry>> per_stripe(stripes_.size());
  for (size_t s = 0; s < stripes_.size(); ++s) {
    const auto& stripe = *stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    per_stripe[s].reserve(stripe.lru.size());
    for (const Entry& entry : stripe.lru) {
      per_stripe[s].push_back(
          SnapshotEntry{entry.object, entry.side, entry.value});
    }
  }
  std::vector<SnapshotEntry> merged;
  for (size_t round = 0;
       static_cast<int64_t>(merged.size()) < max_entries;
       ++round) {
    bool any = false;
    for (auto& stripe_entries : per_stripe) {
      if (round >= stripe_entries.size()) continue;
      any = true;
      merged.push_back(std::move(stripe_entries[round]));
      if (static_cast<int64_t>(merged.size()) >= max_entries) break;
    }
    if (!any) break;
  }
  return merged;
}

void CutQueryCache::Restore(const std::vector<SnapshotEntry>& entries) {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    Insert(it->object, HashPackedSide(it->side), it->side, it->value);
  }
}

int64_t CutQueryCache::size() const {
  int64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    total += static_cast<int64_t>(stripe->lru.size());
  }
  return total;
}

}  // namespace dcs
