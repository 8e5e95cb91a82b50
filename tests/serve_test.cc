// Tests for the batched cut-query serving layer (src/serve): cache
// semantics, side packing for cache keys and the wire, batch answers,
// warm/cold bit-identity, issue order and allocations around deferred
// misses, and the batched for-each decoder against its per-bit reference.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <list>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/types.h"
#include "gtest/gtest.h"
#include "lowerbound/cut_oracle.h"
#include "lowerbound/foreach_encoding.h"
#include "serve/cut_query_service.h"
#include "serve/decoder_batch.h"
#include "serve/query_cache.h"
#include "serve/wire.h"
#include "sketch/backend_registry.h"
#include "util/bitio.h"
#include "util/envelope.h"
#include "util/metrics.h"
#include "util/random.h"

// Global allocations made by this process; the replacement operator new
// below counts them so a test can assert what one AnswerBatch allocates.
std::atomic<int64_t> g_allocations{0};
// Any one allocation larger than this throws std::bad_alloc, so a test can
// show that a structure does not allocate for its capacity up front.
std::atomic<std::size_t> g_allocation_limit{SIZE_MAX};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size <= g_allocation_limit.load(std::memory_order_relaxed)) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  }
  throw std::bad_alloc();
}
// GCC pairs the free() below with the `new` expressions it inlines into
// and flags them; the pairing is correct, since operator new is malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dcs {
namespace {

// ---------------------------------------------------------------------------
// CutQueryCache
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, LookupAfterInsertHits) {
  CutQueryCache cache(CutQueryCache::Options{});
  const VertexSet side = MakeVertexSet(8, {1, 3, 5});
  const uint64_t h = HashSide(side);
  const PackedSide packed = PackSide(side);

  EXPECT_FALSE(cache.Lookup(0, h, packed).has_value());
  cache.Insert(0, h, packed, 42.5);
  const auto hit = cache.Lookup(0, h, packed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 42.5);
  // Same side, different object: distinct entry.
  EXPECT_FALSE(cache.Lookup(1, h, packed).has_value());
  EXPECT_EQ(cache.size(), 1);
}

TEST(QueryCacheTest, KeysAreByteValueInsensitive) {
  // VertexSet membership is "any nonzero byte": {1, 7, 255} and {1, 1, 1}
  // at the same positions denote the same side and must share a cache key.
  VertexSet a(8, 0), b(8, 0);
  a[2] = 1;
  a[5] = 1;
  b[2] = 7;
  b[5] = 255;
  EXPECT_EQ(HashSide(a), HashSide(b));
  EXPECT_TRUE(PackSide(a) == PackSide(b));

  CutQueryCache cache(CutQueryCache::Options{});
  cache.Insert(3, HashSide(a), PackSide(a), 7.25);
  const auto hit = cache.Lookup(3, HashSide(b), PackSide(b));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 7.25);
}

// Sides over n vertices built from the byte values that word-at-a-time
// membership packing could mishandle: 0, 1, 0x7F (no top bit), 0x80 (only
// the top bit) and 0xFF, each alone and mixed, plus random bytes.
std::vector<VertexSet> PackingSides(int n, Rng& rng) {
  const uint8_t values[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
  std::vector<VertexSet> sides;
  for (const uint8_t value : values) {
    sides.emplace_back(static_cast<size_t>(n), value);
  }
  VertexSet mixed(static_cast<size_t>(n));
  VertexSet random(static_cast<size_t>(n));
  for (size_t v = 0; v < mixed.size(); ++v) {
    mixed[v] = values[rng.UniformInt(std::size(values))];
    random[v] = rng.Bernoulli(0.3) ? 0 : static_cast<uint8_t>(rng.Next());
  }
  sides.push_back(std::move(mixed));
  sides.push_back(std::move(random));
  return sides;
}

TEST(QueryCacheTest, PackingAndHashingPathsAgree) {
  // Every way of forming a cache key gives the byte loop's packed words
  // and one hash, for every size from empty through partial tail words.
  Rng rng(71);
  for (int n = 0; n <= 200; ++n) {
    for (const VertexSet& side : PackingSides(n, rng)) {
      PackedSide expected;
      expected.words.assign(PackedWordCount(side.size()), 0);
      for (size_t v = 0; v < side.size(); ++v) {
        if (side[v] != 0) expected.words[v / 64] |= uint64_t{1} << (v % 64);
      }
      const uint64_t hash = HashSide(side);
      const PackedSide packed = PackSide(side);
      ASSERT_TRUE(packed == expected) << "n " << n;
      ASSERT_EQ(HashPackedSide(packed), hash) << "n " << n;
      // Into dirty scratch, as the serving path reuses it across queries.
      std::vector<uint64_t> words(expected.words.size(), ~uint64_t{0});
      ASSERT_EQ(PackSideWords(side, words), hash) << "n " << n;
      ASSERT_EQ(words, expected.words) << "n " << n;
    }
  }
}

TEST(QueryCacheTest, SingleVertexSidesHashApart) {
  // One member at each position of every word, and the empty side, over
  // 200 vertices: the per-word mixes are keyed by position, so no two
  // collide.
  std::vector<uint64_t> hashes = {HashSide(VertexSet(200, 0))};
  for (VertexId v = 0; v < 200; ++v) {
    hashes.push_back(HashSide(MakeVertexSet(200, {v})));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

// A query batch's wire bytes are one bit per vertex, in vertex order, after
// the batch header. Built here bit by bit and compared byte for byte.
TEST(WireTest, QuerySidesPackAndUnpackLikeABitLoop) {
  constexpr uint64_t kRpcMagic = 0xA9C5;  // serve/wire.cc's envelope magic
  Rng rng(73);
  for (int n = 1; n <= 200; ++n) {
    RpcRequest request;
    request.kind = RpcKind::kQueryBatch;
    request.object_id = n % 5;
    request.num_vertices = n;
    request.sides = PackingSides(n, rng);
    BitWriter payload;
    payload.WriteEliasGamma(static_cast<uint64_t>(request.object_id));
    payload.WriteEliasGamma(static_cast<uint64_t>(n));
    payload.WriteEliasGamma(request.sides.size());
    for (const VertexSet& side : request.sides) {
      for (const uint8_t byte : side) payload.WriteBit(byte != 0);
    }
    BitWriter body;
    AppendEnvelope(kRpcMagic, static_cast<uint64_t>(RpcKind::kQueryBatch),
                   payload.bytes(), payload.bit_count(), body);
    const Message encoded = EncodeRpcRequest(request);
    ASSERT_EQ(encoded.bit_count, body.bit_count()) << "n " << n;
    ASSERT_EQ(encoded.bytes, body.bytes()) << "n " << n;

    const StatusOr<RpcRequest> decoded = DecodeRpcRequest(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->sides.size(), request.sides.size());
    for (size_t q = 0; q < request.sides.size(); ++q) {
      VertexSet normalized(request.sides[q].size());
      for (size_t v = 0; v < normalized.size(); ++v) {
        normalized[v] = request.sides[q][v] != 0;
      }
      ASSERT_EQ(decoded->sides[q], normalized) << "n " << n << " side " << q;
    }
  }
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed) {
  CutQueryCache::Options options;
  options.capacity = 2;
  CutQueryCache cache(options);

  const VertexSet s0 = MakeVertexSet(8, {0});
  const VertexSet s1 = MakeVertexSet(8, {1});
  const VertexSet s2 = MakeVertexSet(8, {2});
  cache.Insert(0, HashSide(s0), PackSide(s0), 10);
  cache.Insert(0, HashSide(s1), PackSide(s1), 11);
  // Touch s0 so s1 becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(0, HashSide(s0), PackSide(s0)).has_value());
  cache.Insert(0, HashSide(s2), PackSide(s2), 12);

  EXPECT_EQ(cache.size(), 2);
  EXPECT_TRUE(cache.Lookup(0, HashSide(s0), PackSide(s0)).has_value());
  EXPECT_FALSE(cache.Lookup(0, HashSide(s1), PackSide(s1)).has_value());
  EXPECT_TRUE(cache.Lookup(0, HashSide(s2), PackSide(s2)).has_value());
}

TEST(QueryCacheTest, DuplicateInsertRefreshesInsteadOfDoubleStoring) {
  CutQueryCache::Options options;
  options.capacity = 4;
  CutQueryCache cache(options);
  const VertexSet side = MakeVertexSet(8, {1, 2});
  cache.Insert(0, HashSide(side), PackSide(side), 5.0);
  cache.Insert(0, HashSide(side), PackSide(side), 5.0);
  EXPECT_EQ(cache.size(), 1);
}

TEST(QueryCacheTest, CapacityIsExact) {
  CutQueryCache::Options options;
  options.capacity = 3;
  CutQueryCache cache(options);
  for (int v = 0; v < 20; ++v) {
    const VertexSet side = MakeVertexSet(32, {v});
    cache.Insert(0, HashSide(side), PackSide(side), v);
    EXPECT_LE(cache.size(), 3) << "after insert " << v;
  }
  EXPECT_EQ(cache.size(), 3);
  // The survivors are the three most recent inserts.
  for (int v = 17; v < 20; ++v) {
    const VertexSet side = MakeVertexSet(32, {v});
    EXPECT_TRUE(cache.Lookup(0, HashSide(side), PackSide(side)).has_value())
        << "side " << v;
  }
}

TEST(QueryCacheTest, SnapshotHottestIsGlobalMruOrder) {
  CutQueryCache cache(CutQueryCache::Options{});
  for (int v = 0; v < 10; ++v) {
    const VertexSet side = MakeVertexSet(32, {v});
    cache.Insert(0, HashSide(side), PackSide(side), v);
  }
  // Touch 3 then 7: 7 is now the hottest, 3 the next.
  for (const int v : {3, 7}) {
    const VertexSet side = MakeVertexSet(32, {v});
    ASSERT_TRUE(cache.Lookup(0, HashSide(side), PackSide(side)).has_value());
  }
  const std::vector<double> expected = {7, 3, 9, 8, 6, 5, 4, 2, 1, 0};
  const auto all = cache.SnapshotHottest(100);
  ASSERT_EQ(all.size(), expected.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].value, expected[i]) << "position " << i;
    EXPECT_TRUE(all[i].side == PackSide(MakeVertexSet(
                                   32, {static_cast<VertexId>(expected[i])})));
  }
  // A truncated snapshot is the same order's prefix.
  const auto top = cache.SnapshotHottest(4);
  ASSERT_EQ(top.size(), 4u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].value, expected[i]) << "position " << i;
  }
}

// The LRU contract in thirty lines: a list, most recently used first,
// searched linearly.
class ReferenceLru {
 public:
  explicit ReferenceLru(int64_t capacity) : capacity_(capacity) {}

  std::optional<double> Lookup(int64_t object, const PackedSide& side) {
    const auto it = Find(object, side);
    if (it == entries_.end()) return std::nullopt;
    entries_.splice(entries_.begin(), entries_, it);
    return it->value;
  }

  void Insert(int64_t object, const PackedSide& side, double value) {
    const auto it = Find(object, side);
    if (it != entries_.end()) {
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
    entries_.push_front({object, side, value});
    if (static_cast<int64_t>(entries_.size()) > capacity_) entries_.pop_back();
  }

  const std::list<CutQueryCache::SnapshotEntry>& entries() const {
    return entries_;
  }

 private:
  std::list<CutQueryCache::SnapshotEntry>::iterator Find(
      int64_t object, const PackedSide& side) {
    return std::find_if(entries_.begin(), entries_.end(), [&](const auto& e) {
      return e.object == object && e.side == side;
    });
  }

  int64_t capacity_;
  std::list<CutQueryCache::SnapshotEntry> entries_;
};

TEST(QueryCacheTest, MatchesAReferenceLru) {
  // Seeded random Lookup/Insert/Restore sequences over mixed objects and
  // sides of 1, 4 and 5 words, so an evicted slot takes a side of another
  // size. In the colliding mode every call passes one side hash, so all
  // keys of an object share a home cell: probing, backward-shift erase and
  // index growth all run on long probe runs.
  const int64_t objects[] = {0, 1, 7, int64_t{1} << 40};
  for (const bool colliding : {false, true}) {
    for (const int64_t capacity : {1, 2, 3, 16, 100}) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity
                                      << (colliding ? " colliding" : ""));
      Rng rng(static_cast<uint64_t>(capacity) * 2 + (colliding ? 1 : 0));
      std::vector<PackedSide> sides;
      for (const size_t words : {1, 4, 5}) {
        for (int k = 0; k < 40; ++k) {
          PackedSide side;
          for (size_t w = 0; w < words; ++w) side.words.push_back(rng.Next());
          sides.push_back(std::move(side));
        }
      }
      const auto hash_of = [&](const PackedSide& side) {
        return colliding ? uint64_t{0x5EED} : HashPackedSide(side);
      };
      CutQueryCache::Options options;
      options.capacity = capacity;
      CutQueryCache cache(options);
      ReferenceLru reference(capacity);
      const auto pick = [&] {
        return std::pair(objects[rng.UniformInt(std::size(objects))],
                         &sides[rng.UniformInt(sides.size())]);
      };
      for (int op = 0; op < 3000; ++op) {
        const uint64_t kind = rng.UniformInt(10);
        if (kind < 5) {
          const auto [object, side] = pick();
          ASSERT_EQ(cache.Lookup(object, hash_of(*side), *side),
                    reference.Lookup(object, *side))
              << "op " << op;
        } else if (kind < 9) {
          const auto [object, side] = pick();
          const double value = static_cast<double>(rng.UniformInt(1000));
          cache.Insert(object, hash_of(*side), *side, value);
          reference.Insert(object, *side, value);
        } else {
          std::vector<CutQueryCache::SnapshotEntry> entries;
          for (uint64_t k = rng.UniformInt(4); k > 0; --k) {
            const auto [object, side] = pick();
            entries.push_back(
                {object, *side, static_cast<double>(rng.UniformInt(1000))});
          }
          if (colliding) {
            for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
              cache.Insert(it->object, hash_of(it->side), it->side,
                           it->value);
            }
          } else {
            cache.Restore(entries);
          }
          for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
            reference.Insert(it->object, it->side, it->value);
          }
        }
        ASSERT_EQ(cache.size(),
                  static_cast<int64_t>(reference.entries().size()))
            << "op " << op;
        const auto hottest = cache.SnapshotHottest(capacity);
        ASSERT_EQ(hottest.size(), reference.entries().size()) << "op " << op;
        auto expected = reference.entries().begin();
        for (size_t i = 0; i < hottest.size(); ++i, ++expected) {
          ASSERT_EQ(hottest[i].object, expected->object) << "op " << op;
          ASSERT_TRUE(hottest[i].side == expected->side) << "op " << op;
          ASSERT_EQ(hottest[i].value, expected->value) << "op " << op;
        }
      }
    }
  }
}

TEST(QueryCacheTest, LargestCapacityAllocatesOnlyForItsEntries) {
  // Slots and index grow with the entries: a cache at the largest
  // capacity makes no allocation above 64 KiB for a thousand entries.
  g_allocation_limit = 64 << 10;
  CutQueryCache::Options options;
  options.capacity = CutQueryCache::kMaxCapacity;
  bool ok = true;
  try {
    CutQueryCache cache(options);
    for (VertexId v = 0; v < 1000; ++v) {
      const PackedSide side = PackSide(MakeVertexSet(1000, {v}));
      cache.Insert(0, HashPackedSide(side), side, v);
    }
    ok = cache.size() == 1000;
  } catch (const std::bad_alloc&) {
    ok = false;
  }
  g_allocation_limit = SIZE_MAX;
  EXPECT_TRUE(ok);
}

TEST(QueryCacheTest, CapacityPastSlotIdsIsAContractViolation) {
  CutQueryCache::Options options;
  options.capacity = CutQueryCache::kMaxCapacity + 1;
  EXPECT_DEATH(CutQueryCache cache(options), "CHECK");
}

// ---------------------------------------------------------------------------
// CutQueryService batches
// ---------------------------------------------------------------------------

std::vector<CutQueryService::Query> MakeBatch(CutQueryService::ObjectId object,
                                              int n, int count, Rng& rng,
                                              int repeat_period = 0) {
  std::vector<CutQueryService::Query> batch;
  std::vector<VertexSet> pool;
  for (int i = 0; i < count; ++i) {
    if (repeat_period > 0 && i >= repeat_period) {
      batch.push_back(
          {object, batch[static_cast<size_t>(i % repeat_period)].side});
      continue;
    }
    VertexSet side(static_cast<size_t>(n), 0);
    do {
      for (auto& bit : side) bit = static_cast<uint8_t>(rng.Next() & 1);
    } while (!IsProperCutSide(side));
    batch.push_back({object, std::move(side)});
  }
  return batch;
}

TEST(CutQueryServiceTest, GraphBatchMatchesDirectCutWeights) {
  Rng rng(7);
  const DirectedGraph graph = RandomBalancedDigraph(24, 0.4, 2.0, rng);
  CutQueryService service;
  const auto object = service.RegisterGraph(graph);
  const auto batch = MakeBatch(object, 24, 40, rng);

  const std::vector<double> answers = service.AnswerBatch(batch);
  ASSERT_EQ(answers.size(), batch.size());
  const CutOracle direct = ExactCutOracle(graph);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(answers[i], direct(batch[i].side)) << "query " << i;
  }
}

TEST(CutQueryServiceTest, WarmBatchBitIdenticalToCold) {
  Rng rng(11);
  const DirectedGraph graph = RandomBalancedDigraph(20, 0.5, 1.0, rng);
  CutQueryService service;
  const auto object = service.RegisterGraph(graph);
  // Heavy repetition: 50 queries cycling through 10 distinct sides.
  const auto batch = MakeBatch(object, 20, 50, rng, /*repeat_period=*/10);

  const std::vector<double> cold = service.AnswerBatch(batch);
  EXPECT_GT(service.cache_size(), 0);
  const std::vector<double> warm = service.AnswerBatch(batch);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], warm[i]) << "query " << i;
  }
}

TEST(CutQueryServiceTest, CacheDisabledStillAnswersCorrectly) {
  Rng rng(13);
  const DirectedGraph graph = RandomBalancedDigraph(16, 0.5, 1.0, rng);
  CutQueryServiceOptions options;
  options.enable_cache = false;
  CutQueryService service(options);
  const auto object = service.RegisterGraph(graph);
  const auto batch = MakeBatch(object, 16, 20, rng, /*repeat_period=*/5);

  const std::vector<double> a = service.AnswerBatch(batch);
  const std::vector<double> b = service.AnswerBatch(batch);
  EXPECT_EQ(service.cache_size(), 0);
  const CutOracle direct = ExactCutOracle(graph);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(a[i], direct(batch[i].side));
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(CutQueryServiceTest, SketchBatchMatchesDirectEstimates) {
  Rng rng(17);
  const DirectedGraph graph = RandomBalancedDigraph(24, 0.5, 2.0, rng);
  BackendOptions options;
  options.epsilon = 0.5;
  options.beta = 2.0;
  options.seed = 5;
  CutQueryService service;
  const auto object = service.RegisterBackendSketch(graph, "foreach", options);
  ASSERT_TRUE(object.ok()) << object.status().ToString();
  const auto sketch = BuildBackendSketch("foreach", graph, options);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const auto batch = MakeBatch(*object, 24, 20, rng);

  const std::vector<double> answers = service.AnswerBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(answers[i], (*sketch)->EstimateCut(batch[i].side));
  }
}

int64_t CounterDelta(const metrics::MetricsSnapshot& diff,
                     const std::string& name) {
  const auto it = diff.counters.find(name);
  return it == diff.counters.end() ? 0 : it->second;
}

TEST(CutQueryServiceTest, DeferredGraphMissesKeepIssueOrder) {
  // One run interleaving two graphs (whose misses are deferred into one
  // lane pass per graph) with two backend sketches (which run inline).
  // Every answer must equal calling its object's oracle alone.
  Rng rng(47);
  const DirectedGraph graph_a = RandomBalancedDigraph(20, 0.5, 2.0, rng);
  const DirectedGraph graph_b = RandomBalancedDigraph(20, 0.4, 1.0, rng);
  BackendOptions options;
  options.epsilon = 0.5;
  options.beta = 2.0;
  CutQueryService service;
  const auto a = service.RegisterGraph(graph_a);
  const auto b = service.RegisterGraph(graph_b);
  const auto sketch1 =
      service.RegisterBackendSketch(graph_a, "foreach", options);
  const auto sketch2 =
      service.RegisterBackendSketch(graph_b, "importance", options);
  ASSERT_TRUE(sketch1.ok()) << sketch1.status().ToString();
  ASSERT_TRUE(sketch2.ok()) << sketch2.status().ToString();
  const auto reference1 = BuildBackendSketch("foreach", graph_a, options);
  const auto reference2 = BuildBackendSketch("importance", graph_b, options);
  ASSERT_TRUE(reference1.ok() && reference2.ok());

  const CutQueryService::ObjectId pattern[] = {a,        *sketch1, *sketch2,
                                               b,        *sketch2, a,
                                               *sketch1, b};
  std::vector<CutQueryService::Query> batch;
  for (int i = 0; i < 24; ++i) {
    batch.push_back(
        {pattern[i % 8], MakeBatch(0, 20, 1, rng).front().side});
  }
  batch[21].side = batch[5].side;  // graph a: one repeat within the shard
  ASSERT_EQ(batch[21].object, a);
  ASSERT_LE(batch.size(), 32u);  // one run of AnswerBatch
  constexpr int64_t kGraphMisses = 11;  // 12 graph queries, one repeated
  constexpr int64_t kSketchMisses = 12;

  const metrics::MetricsSnapshot before =
      metrics::Registry::Get().Snapshot();
  const std::vector<double> answers = service.AnswerBatch(batch);
  const metrics::MetricsSnapshot diff =
      metrics::Registry::Get().Snapshot().DiffSince(before);

  const CutOracle exact_a = ExactCutOracle(graph_a);
  const CutOracle exact_b = ExactCutOracle(graph_b);
  const CutOracle reference_sketch1 = SketchCutOracle(**reference1);
  const CutOracle reference_sketch2 = SketchCutOracle(**reference2);
  ASSERT_EQ(answers.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto object = batch[i].object;
    const CutOracle& oracle = object == a          ? exact_a
                              : object == b        ? exact_b
                              : object == *sketch1 ? reference_sketch1
                                                   : reference_sketch2;
    EXPECT_EQ(answers[i], oracle(batch[i].side)) << "query " << i;
  }

  if (DCS_METRICS_ENABLED) {
    EXPECT_EQ(CounterDelta(diff, "serve.cache.misses"),
              kGraphMisses + kSketchMisses);
    EXPECT_EQ(CounterDelta(diff, "serve.cache.hits"), 1);
    // The graph misses reach their oracle once each, batched; the sketch
    // misses once each, inline.
    EXPECT_EQ(CounterDelta(diff, "cutoracle.query.served"),
              kGraphMisses + kSketchMisses);
  }
}

TEST(CutQueryServiceTest, RepeatedSideWithoutCacheStillAnswers) {
  // With the cache off a repeated side takes its own lane; both lanes
  // answer bit-identically to the one-shot oracle.
  Rng rng(53);
  const DirectedGraph graph = RandomBalancedDigraph(18, 0.5, 3.0, rng);
  CutQueryServiceOptions options;
  options.enable_cache = false;
  CutQueryService service(options);
  const auto object = service.RegisterGraph(graph);
  const auto batch = MakeBatch(object, 18, 30, rng, /*repeat_period=*/4);
  const std::vector<double> answers = service.AnswerBatch(batch);
  const CutOracle direct = ExactCutOracle(graph);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(answers[i], direct(batch[i].side)) << "query " << i;
  }
}

TEST(CutQueryServiceTest, AllHitBatchAllocatesOnlyItsPackedSide) {
  // A fully cached batch allocates its answer vector and its packed-side
  // scratch; no lane is built.
  Rng rng(59);
  const DirectedGraph graph = RandomBalancedDigraph(64, 0.3, 2.0, rng);
  CutQueryService service;
  const auto object = service.RegisterGraph(graph);
  const auto batch = MakeBatch(object, 64, 32, rng);
  const std::vector<double> cold = service.AnswerBatch(batch);
  // One unmeasured warm pass first: it registers the hit path's metric
  // counters, which allocate once, on first use, per process.
  EXPECT_EQ(service.AnswerBatch(batch), cold);

  const int64_t before = g_allocations.load();
  const std::vector<double> warm = service.AnswerBatch(batch);
  const int64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 1 + 1);
  EXPECT_EQ(warm, cold);
}

TEST(CutQueryServiceTest, FullCacheMissBatchAllocatesNoEntries) {
  // A full cache whose every slot has held a side of this size takes a
  // batch of fresh sides: each miss evicts, and the new entry reuses the
  // victim's slot and word storage. The batch allocates its answer vector,
  // its key scratch and CutWeights' one lane-mask vector, however many
  // entries it evicts.
  Rng rng(61);
  const DirectedGraph graph = RandomBalancedDigraph(64, 0.3, 2.0, rng);
  CutQueryServiceOptions options;
  options.cache_capacity = 48;
  CutQueryService service(options);
  const auto object = service.RegisterGraph(graph);
  // 96 fresh sides: fills the cache, then evicts (registering the miss
  // path's metric counters, which allocate once per process).
  service.AnswerBatch(MakeBatch(object, 64, 96, rng));
  ASSERT_EQ(service.cache_size(), 48);

  const CutOracle direct = ExactCutOracle(graph);
  for (const int misses : {1, 8, 32}) {
    const auto batch = MakeBatch(object, 64, misses, rng);
    const int64_t before = g_allocations.load();
    const std::vector<double> answers = service.AnswerBatch(batch);
    const int64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 1 + 1 + 1) << misses << " misses";
    EXPECT_EQ(service.cache_size(), 48);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(answers[i], direct(batch[i].side)) << "query " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched decoders
// ---------------------------------------------------------------------------

TEST(DecoderBatchTest, DecodeForEachBitsMatchesPerBitDecode) {
  ForEachLowerBoundParams params;
  params.inv_epsilon = 4;
  params.sqrt_beta = 1;
  params.num_layers = 2;
  const ForEachEncoder encoder(params);
  const ForEachDecoder decoder(params);

  Rng rng(51);
  std::vector<int8_t> s(static_cast<size_t>(params.total_bits()));
  for (auto& bit : s) bit = (rng.Next() & 1) ? 1 : -1;
  const auto encoding = encoder.Encode(s);

  CutQueryService service;
  const auto object = service.RegisterGraph(encoding.graph);
  const CutOracle direct = ExactCutOracle(encoding.graph);

  std::vector<int64_t> qs;
  for (int64_t q = 0; q < params.total_bits(); ++q) qs.push_back(q);
  const std::vector<int8_t> batched =
      DecodeForEachBits(decoder, qs, service, object);
  ASSERT_EQ(batched.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(batched[i], decoder.DecodeBit(qs[i], direct)) << "bit " << i;
  }
  // Warm pass: identical decodes from the cache.
  const std::vector<int8_t> warm =
      DecodeForEachBits(decoder, qs, service, object);
  EXPECT_EQ(batched, warm);
}

}  // namespace
}  // namespace dcs
