// ℓ₀-samplers and the AGM connectivity sketch: exact 1-sparse recovery,
// sampling correctness under insertions/deletions, linearity/mergeability,
// Boruvka spanning-forest extraction, and golden digests/forests/sizes that
// pin the sketch's state word for word.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "mincut/stoer_wagner.h"
#include "gtest/gtest.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "stream/l0_sampler.h"
#include "util/random.h"

namespace dcs {
namespace {

TEST(OneSparseRecoveryTest, RecoversSingleCoordinate) {
  OneSparseRecovery recovery(12345);
  recovery.Update(42, 7);
  const auto sample = recovery.Recover();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 42);
  EXPECT_EQ(sample->value, 7);
}

TEST(OneSparseRecoveryTest, NegativeValue) {
  OneSparseRecovery recovery(999);
  recovery.Update(5, -3);
  const auto sample = recovery.Recover();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 5);
  EXPECT_EQ(sample->value, -3);
}

TEST(OneSparseRecoveryTest, CancellationYieldsZero) {
  OneSparseRecovery recovery(54321);
  recovery.Update(10, 4);
  recovery.Update(10, -4);
  EXPECT_TRUE(recovery.IsZero());
  EXPECT_FALSE(recovery.Recover().has_value());
}

TEST(OneSparseRecoveryTest, RejectsTwoSparseVectors) {
  OneSparseRecovery recovery(77777);
  recovery.Update(3, 1);
  recovery.Update(9, 1);
  EXPECT_FALSE(recovery.Recover().has_value());
  EXPECT_FALSE(recovery.IsZero());
}

TEST(OneSparseRecoveryTest, RejectsManySparseVectors) {
  OneSparseRecovery recovery(31337);
  for (int i = 0; i < 50; ++i) recovery.Update(i * 3, 1 + (i % 5));
  EXPECT_FALSE(recovery.Recover().has_value());
}

TEST(OneSparseRecoveryTest, MergeCancelsAcrossInstances) {
  OneSparseRecovery a(2024);
  OneSparseRecovery b(2024);
  a.Update(8, 5);
  a.Update(15, 2);
  b.Update(15, -2);
  a.MergeFrom(b);
  const auto sample = a.Recover();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 8);
  EXPECT_EQ(sample->value, 5);
}

TEST(L0SamplerTest, SamplesTheOnlyCoordinate) {
  L0Sampler sampler(1000, 7);
  sampler.Update(123, 9);
  const auto sample = sampler.Sample();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 123);
  EXPECT_EQ(sample->value, 9);
}

TEST(L0SamplerTest, ZeroVectorSamplesNothing) {
  L0Sampler sampler(64, 3);
  EXPECT_TRUE(sampler.AppearsZero());
  EXPECT_FALSE(sampler.Sample().has_value());
  sampler.Update(10, 2);
  sampler.Update(10, -2);
  EXPECT_TRUE(sampler.AppearsZero());
  EXPECT_FALSE(sampler.Sample().has_value());
}

TEST(L0SamplerTest, ReturnsOnlyRealCoordinates) {
  // Whatever the sampler returns must be a coordinate that is actually
  // nonzero with its true value.
  Rng rng(11);
  int successes = 0;
  for (int trial = 0; trial < 50; ++trial) {
    L0Sampler sampler(5000, 100 + trial);
    std::map<int64_t, int64_t> truth;
    for (int u = 0; u < 40; ++u) {
      const int64_t index = static_cast<int64_t>(rng.UniformInt(5000));
      const int64_t delta = rng.UniformInRange(-3, 3);
      if (delta == 0) continue;
      truth[index] += delta;
      sampler.Update(index, delta);
    }
    const auto sample = sampler.Sample();
    if (!sample.has_value()) continue;
    ++successes;
    ASSERT_TRUE(truth.count(sample->index)) << "trial " << trial;
    EXPECT_EQ(truth[sample->index], sample->value) << "trial " << trial;
  }
  // ℓ₀-sampling succeeds with constant probability; expect a majority.
  EXPECT_GE(successes, 25);
}

TEST(L0SamplerTest, MergeEqualsCombinedStream) {
  L0Sampler a(256, 42);
  L0Sampler b(256, 42);
  L0Sampler combined(256, 42);
  a.Update(7, 2);
  combined.Update(7, 2);
  b.Update(91, 5);
  combined.Update(91, 5);
  b.Update(7, -2);
  combined.Update(7, -2);
  a.MergeFrom(b);
  const auto from_merge = a.Sample();
  const auto from_stream = combined.Sample();
  ASSERT_TRUE(from_merge.has_value());
  ASSERT_TRUE(from_stream.has_value());
  EXPECT_EQ(from_merge->index, from_stream->index);
  EXPECT_EQ(from_merge->value, from_stream->value);
  EXPECT_EQ(from_merge->index, 91);
}

TEST(AgmSketchTest, PathGraphSpanningForest) {
  AgmConnectivitySketch sketch(8, 0, 1);
  for (int v = 0; v + 1 < 8; ++v) sketch.AddEdge(v, v + 1);
  const std::vector<Edge> forest = sketch.SpanningForest();
  EXPECT_EQ(forest.size(), 7u);
  EXPECT_TRUE(sketch.IsConnected());
}

TEST(AgmSketchTest, ForestEdgesAreRealEdges) {
  Rng rng(2);
  const UndirectedGraph g =
      RandomUndirectedGraph(24, 0.2, 1.0, 1.0, true, rng);
  std::set<std::pair<int, int>> edge_set;
  for (const Edge& e : g.edges()) edge_set.insert({e.src, e.dst});
  const AgmConnectivitySketch sketch = SketchGraph(g, 0, 7);
  for (const Edge& e : sketch.SpanningForest()) {
    const auto key = e.src < e.dst ? std::make_pair(e.src, e.dst)
                                   : std::make_pair(e.dst, e.src);
    EXPECT_TRUE(edge_set.count(key))
        << "forest edge " << e.src << "-" << e.dst << " not in graph";
  }
}

TEST(AgmSketchTest, CountsComponents) {
  // Two disjoint triangles plus two isolated vertices: 4 components.
  AgmConnectivitySketch sketch(8, 0, 3);
  sketch.AddEdge(0, 1);
  sketch.AddEdge(1, 2);
  sketch.AddEdge(0, 2);
  sketch.AddEdge(3, 4);
  sketch.AddEdge(4, 5);
  sketch.AddEdge(3, 5);
  EXPECT_EQ(sketch.CountComponents(), 4);
  EXPECT_FALSE(sketch.IsConnected());
}

TEST(AgmSketchTest, DeletionsDisconnect) {
  // A path 0-1-2-3; delete the middle edge: two components.
  AgmConnectivitySketch sketch(4, 0, 5);
  sketch.AddEdge(0, 1);
  sketch.AddEdge(1, 2);
  sketch.AddEdge(2, 3);
  EXPECT_TRUE(sketch.IsConnected());
  sketch.RemoveEdge(1, 2);
  EXPECT_EQ(sketch.CountComponents(), 2);
}

TEST(AgmSketchTest, DeletionsRerouteThroughSurvivingEdges) {
  // A cycle survives any single deletion.
  AgmConnectivitySketch sketch(6, 0, 9);
  for (int v = 0; v < 6; ++v) sketch.AddEdge(v, (v + 1) % 6);
  sketch.RemoveEdge(2, 3);
  EXPECT_TRUE(sketch.IsConnected());
}

TEST(AgmSketchTest, MergeAcrossServersMatchesWholeGraph) {
  // Linearity: sketching two edge-disjoint halves on "servers" and merging
  // equals sketching the whole graph.
  Rng rng(4);
  const UndirectedGraph g =
      RandomUndirectedGraph(20, 0.25, 1.0, 1.0, true, rng);
  AgmConnectivitySketch server_a(20, 6, 11);
  AgmConnectivitySketch server_b(20, 6, 11);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const Edge& e = g.edges()[i];
    if (i % 2 == 0) {
      server_a.AddEdge(e.src, e.dst);
    } else {
      server_b.AddEdge(e.src, e.dst);
    }
  }
  server_a.MergeFrom(server_b);
  EXPECT_EQ(server_a.CountComponents(), CountComponents(g));
}

TEST(AgmSketchTest, RandomGraphComponentCountsMatch) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const UndirectedGraph g =
        RandomUndirectedGraph(30, 0.06, 1.0, 1.0, false, rng);
    const AgmConnectivitySketch sketch = SketchGraph(g, 0, 100 + seed);
    EXPECT_EQ(sketch.CountComponents(), CountComponents(g))
        << "seed " << seed;
  }
}

TEST(AgmSketchTest, SizeIsPolylogPerVertex) {
  const AgmConnectivitySketch small(32, 0, 1);
  const AgmConnectivitySketch large(256, 0, 1);
  // Size per vertex grows polylogarithmically: less than 8x for an 8x
  // larger graph (it is O(log^2 n) words per vertex).
  const double small_per_vertex =
      static_cast<double>(small.SizeInBits()) / 32;
  const double large_per_vertex =
      static_cast<double>(large.SizeInBits()) / 256;
  EXPECT_LT(large_per_vertex, 3 * small_per_vertex);
  EXPECT_GT(large.MeasurementCount(), 0);
}

TEST(AgmSketchTest, ParallelEdgesAreTolerated) {
  AgmConnectivitySketch sketch(3, 0, 13);
  sketch.AddEdge(0, 1);
  sketch.AddEdge(0, 1);  // multiplicity 2
  sketch.AddEdge(1, 2);
  EXPECT_TRUE(sketch.IsConnected());
  sketch.RemoveEdge(0, 1);  // multiplicity back to 1
  EXPECT_TRUE(sketch.IsConnected());
}

TEST(AgmKConnectivityTest, CertificatePreservesSmallCuts) {
  // Dumbbell with 2 bridges, k = 4 > 2: the certificate must keep the
  // bridge cut at exactly 2.
  const UndirectedGraph g = DumbbellGraph(8, 2);
  AgmKConnectivitySketch sketch(16, 4, 0, 21);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  const UndirectedGraph certificate = sketch.Certificate();
  EXPECT_DOUBLE_EQ(StoerWagnerMinCut(certificate).value, 2.0);
  EXPECT_DOUBLE_EQ(sketch.MinCutUpToK(), 2.0);
  // At most k forests: k(n-1) edges.
  EXPECT_LE(certificate.num_edges(), 4 * 15);
}

TEST(AgmKConnectivityTest, SaturatesBetweenKAndTruth) {
  // K_10 has min cut 9 > k = 3: the certificate's min cut lands in
  // [k, true] — at least 3 (each of the 3 forests crosses every cut) and
  // at most 9 (the certificate is a subgraph).
  const UndirectedGraph g = CompleteGraph(10, 1.0);
  AgmKConnectivitySketch sketch(10, 3, 0, 22);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  const double estimate = sketch.MinCutUpToK();
  EXPECT_GE(estimate, 3.0);
  EXPECT_LE(estimate, 9.0);
}

TEST(AgmKConnectivityTest, MatchesOfflineSparseCertificateBound) {
  Rng rng(23);
  const UndirectedGraph g =
      RandomUndirectedGraph(20, 0.3, 1.0, 1.0, true, rng);
  const double true_mincut = StoerWagnerMinCut(g).value;
  AgmKConnectivitySketch sketch(20, 6, 0, 24);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  const double estimate = sketch.MinCutUpToK();
  // Never above the truth (subgraph); equals it whp when below k = 6.
  EXPECT_LE(estimate, true_mincut + 1e-9);
  if (true_mincut < 6.0) {
    EXPECT_NEAR(estimate, true_mincut, 1.0);
  }
}

TEST(AgmKConnectivityTest, TracksDeletions) {
  // A 3-bridge dumbbell loses one bridge: min cut 3 → 2.
  const UndirectedGraph g = DumbbellGraph(6, 3);
  AgmKConnectivitySketch sketch(12, 5, 0, 25);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  EXPECT_DOUBLE_EQ(sketch.MinCutUpToK(), 3.0);
  sketch.RemoveEdge(0, 6);  // bridge 0
  EXPECT_DOUBLE_EQ(sketch.MinCutUpToK(), 2.0);
}

TEST(AgmKConnectivityTest, MergeAcrossServers) {
  const UndirectedGraph g = DumbbellGraph(6, 2);
  AgmKConnectivitySketch a(12, 4, 0, 26);
  AgmKConnectivitySketch b(12, 4, 0, 26);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const Edge& e = g.edges()[i];
    (i % 2 == 0 ? a : b).AddEdge(e.src, e.dst);
  }
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.MinCutUpToK(), 2.0);
}

// --- TryMergeFrom: incompatible sketches surface Status, never abort. ---

TEST(AgmSketchMergeTest, TryMergeFromRejectsVertexCountMismatch) {
  AgmConnectivitySketch a(16, 4, 7);
  const AgmConnectivitySketch b(17, 4, 7);
  const Status status = a.TryMergeFrom(b);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, TryMergeFromRejectsRoundsMismatch) {
  AgmConnectivitySketch a(16, 4, 7);
  const AgmConnectivitySketch b(16, 5, 7);
  EXPECT_EQ(a.TryMergeFrom(b).code(), StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, TryMergeFromRejectsSeedMismatch) {
  AgmConnectivitySketch a(16, 4, 7);
  const AgmConnectivitySketch b(16, 4, 8);
  EXPECT_EQ(a.TryMergeFrom(b).code(), StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, TryMergeFromOkMatchesMergeFrom) {
  AgmConnectivitySketch via_try(8, 3, 9);
  AgmConnectivitySketch via_abort(8, 3, 9);
  AgmConnectivitySketch other(8, 3, 9);
  via_try.AddEdge(0, 1);
  via_abort.AddEdge(0, 1);
  other.AddEdge(1, 2);
  ASSERT_TRUE(via_try.TryMergeFrom(other).ok());
  via_abort.MergeFrom(other);
  EXPECT_EQ(via_try.Digest(), via_abort.Digest());
}

TEST(AgmSketchMergeTest, KSketchTryMergeFromRejectsMismatch) {
  AgmKConnectivitySketch a(16, 3, 4, 7);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(17, 3, 4, 7)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(16, 2, 4, 7)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(16, 3, 5, 7)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(16, 3, 4, 8)).code(),
            StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, KSketchFailedMergeLeavesStateUntouched) {
  // Compatibility is validated across all layers before any layer is
  // mutated, so a rejected merge cannot leave the sketch half-merged.
  AgmKConnectivitySketch a(16, 3, 4, 7);
  a.AddEdge(0, 1);
  const uint64_t before = a.Digest();
  AgmKConnectivitySketch mismatched(16, 3, 4, 8);
  mismatched.AddEdge(2, 3);
  ASSERT_FALSE(a.TryMergeFrom(mismatched).ok());
  EXPECT_EQ(a.Digest(), before);
}

// --- Digests: equal state ⇔ equal digest (up to hash collisions). ---

TEST(AgmSketchDigestTest, InsertionOrderDoesNotChangeDigest) {
  const UndirectedGraph g = DumbbellGraph(8, 2);
  AgmConnectivitySketch forward(16, 4, 11);
  AgmConnectivitySketch backward(16, 4, 11);
  for (const Edge& e : g.edges()) forward.AddEdge(e.src, e.dst);
  for (size_t i = g.edges().size(); i-- > 0;) {
    backward.AddEdge(g.edges()[i].src, g.edges()[i].dst);
  }
  EXPECT_EQ(forward.Digest(), backward.Digest());
}

TEST(AgmSketchDigestTest, InsertDeleteCancelsToEmptyDigest) {
  AgmConnectivitySketch sketch(16, 4, 11);
  const uint64_t empty = sketch.Digest();
  sketch.AddEdge(3, 9);
  EXPECT_NE(sketch.Digest(), empty);
  sketch.RemoveEdge(3, 9);
  EXPECT_EQ(sketch.Digest(), empty);
}

TEST(AgmSketchDigestTest, DigestCoversIdentity) {
  // Same (empty) measurement state, different identity: digests differ.
  EXPECT_NE(AgmConnectivitySketch(16, 4, 11).Digest(),
            AgmConnectivitySketch(16, 4, 12).Digest());
  EXPECT_NE(AgmConnectivitySketch(16, 4, 11).Digest(),
            AgmConnectivitySketch(16, 5, 11).Digest());
}

// --- Merge under deletion: edge-disjoint sharded maintenance with
// interleaved inserts/deletes merges bit-identically to serial. ---

TEST(AgmSketchMergeTest, ShardedMergeUnderDeletionMatchesSerial) {
  Rng rng(31);
  const int n = 48;
  AgmConnectivitySketch serial(n, 5, 13);
  AgmConnectivitySketch shard_a(n, 5, 13);
  AgmConnectivitySketch shard_b(n, 5, 13);
  // Random inserts with interleaved deletes of live edges; shards are
  // edge-disjoint (by canonical lower endpoint parity).
  std::vector<std::pair<VertexId, VertexId>> live;
  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.Bernoulli(0.3)) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      const auto [u, v] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      serial.RemoveEdge(u, v);
      (std::min(u, v) % 2 == 0 ? shard_a : shard_b).RemoveEdge(u, v);
    } else {
      const VertexId u = static_cast<VertexId>(rng.UniformInt(n));
      VertexId v = static_cast<VertexId>(rng.UniformInt(n - 1));
      if (v >= u) ++v;
      live.emplace_back(u, v);
      serial.AddEdge(u, v);
      (std::min(u, v) % 2 == 0 ? shard_a : shard_b).AddEdge(u, v);
    }
  }
  ASSERT_TRUE(shard_a.TryMergeFrom(shard_b).ok());
  EXPECT_EQ(shard_a.Digest(), serial.Digest());
}

TEST(AgmKConnectivityTest, ShardedMergeUnderDeletionMatchesSerial) {
  const UndirectedGraph g = DumbbellGraph(10, 3);
  AgmKConnectivitySketch serial(20, 4, 0, 17);
  AgmKConnectivitySketch shard_a(20, 4, 0, 17);
  AgmKConnectivitySketch shard_b(20, 4, 0, 17);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const Edge& e = g.edges()[i];
    serial.AddEdge(e.src, e.dst);
    (i % 2 == 0 ? shard_a : shard_b).AddEdge(e.src, e.dst);
  }
  serial.RemoveEdge(0, 10);
  shard_a.RemoveEdge(0, 10);
  ASSERT_TRUE(shard_a.TryMergeFrom(shard_b).ok());
  EXPECT_EQ(shard_a.Digest(), serial.Digest());
  EXPECT_DOUBLE_EQ(shard_a.MinCutUpToK(), serial.MinCutUpToK());
}

// --- Regression: RemoveEdge of a never-inserted edge silently corrupts
// the raw sketch. The sketch is linear, so nothing aborts — the vector
// coordinate just goes negative and every query downstream is answered
// against a graph that never existed. This is exactly why the streaming
// ingestor validates deletes at admission (kFailedPrecondition) instead
// of letting them reach a sketch (see ingest_test.cc). ---

TEST(AgmSketchRegressionTest, RemoveNeverInsertedEdgeCorruptsRawSketch) {
  AgmConnectivitySketch sketch(16, 4, 19);
  const uint64_t clean = sketch.Digest();
  sketch.RemoveEdge(2, 7);  // never inserted: state is now corrupt...
  EXPECT_NE(sketch.Digest(), clean);
  sketch.AddEdge(2, 7);  // ...but linearity means a later insert cancels it
  EXPECT_EQ(sketch.Digest(), clean);
}

// --- Golden state: digests, forests and sizes recorded from the original
// per-sampler layout (one L0Sampler object per round and vertex). The flat
// cell array must reproduce every measurement word, so the digests, the
// Boruvka forests and the sizes are pinned exactly. ---

template <typename Sketch>
void ApplyUpdates(const std::vector<EdgeUpdate>& updates, Sketch& sketch) {
  for (const EdgeUpdate& update : updates) {
    if (update.is_delete) {
      sketch.RemoveEdge(update.u, update.v);
    } else {
      sketch.AddEdge(update.u, update.v);
    }
  }
}

// A sketch of RandomUpdateStream(n, count, 0.2, Rng(seed + 17)).
AgmConnectivitySketch GoldenSketch(int n, int rounds, uint64_t seed,
                                   int64_t count) {
  Rng rng(seed + 17);
  AgmConnectivitySketch sketch(n, rounds, seed);
  ApplyUpdates(RandomUpdateStream(n, count, 0.2, rng), sketch);
  return sketch;
}

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

EdgeList EdgesOf(const std::vector<Edge>& edges) {
  EdgeList pairs;
  for (const Edge& e : edges) pairs.emplace_back(e.src, e.dst);
  return pairs;
}

struct GoldenCase {
  int n;
  int rounds;
  uint64_t seed;
  int64_t count;
  uint64_t digest;
  EdgeList forest;
};

// --- AssignSum: the epoch seal's one-pass sum. ---

// Splits `updates` over `parts` copies of `empty` by canonical lower
// endpoint, as the ingestor shards them (each delete lands in the part
// that holds its insert).
template <typename Sketch>
std::vector<Sketch> ShardedParts(const Sketch& empty,
                                 const std::vector<EdgeUpdate>& updates,
                                 int parts) {
  std::vector<Sketch> sketches(static_cast<size_t>(parts), empty);
  for (const EdgeUpdate& update : updates) {
    Sketch& part = sketches[static_cast<size_t>(
        std::min(update.u, update.v) % parts)];
    if (update.is_delete) {
      part.RemoveEdge(update.u, update.v);
    } else {
      part.AddEdge(update.u, update.v);
    }
  }
  return sketches;
}

template <typename Sketch>
std::vector<const Sketch*> PointersTo(const std::vector<Sketch>& sketches) {
  std::vector<const Sketch*> pointers;
  for (const Sketch& sketch : sketches) pointers.push_back(&sketch);
  return pointers;
}

TEST(AgmSketchAssignSumTest, MatchesSequentialMergeForOneToFourParts) {
  const int n = 40;
  for (int parts = 1; parts <= 4; ++parts) {
    SCOPED_TRACE("parts=" + std::to_string(parts));
    Rng rng(23);
    const std::vector<AgmConnectivitySketch> sketches =
        ShardedParts(AgmConnectivitySketch(n, 0, 23),
                     RandomUpdateStream(n, 600, 0.25, rng), parts);
    AgmConnectivitySketch reference(n, 0, 23);
    for (const AgmConnectivitySketch& part : sketches) {
      ASSERT_TRUE(reference.TryMergeFrom(part).ok());
    }
    // A target with state of its own: AssignSum overwrites, never adds.
    AgmConnectivitySketch target(n, 0, 23);
    target.AddEdge(1, 2);
    target.AddEdge(3, 4);
    const StatusOr<uint64_t> digest = target.AssignSum(PointersTo(sketches));
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(*digest, reference.Digest());
    EXPECT_EQ(target.Digest(), reference.Digest());
    EXPECT_EQ(EdgesOf(target.SpanningForest()),
              EdgesOf(reference.SpanningForest()));
  }
}

TEST(AgmSketchAssignSumTest, NoPartsIsTheEmptySketch) {
  AgmConnectivitySketch target(16, 4, 11);
  target.AddEdge(2, 5);
  const StatusOr<uint64_t> digest = target.AssignSum({});
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(*digest, AgmConnectivitySketch(16, 4, 11).Digest());
  EXPECT_EQ(target.Digest(), *digest);
  EXPECT_TRUE(target.SpanningForest().empty());
}

TEST(AgmSketchAssignSumTest, MismatchedPartIsRejectedBeforeAnyWrite) {
  const AgmConnectivitySketch good(16, 4, 7);
  const AgmConnectivitySketch mismatched[] = {
      AgmConnectivitySketch(17, 4, 7),  // n
      AgmConnectivitySketch(16, 5, 7),  // rounds
      AgmConnectivitySketch(16, 4, 8),  // seed
  };
  for (const AgmConnectivitySketch& bad : mismatched) {
    AgmConnectivitySketch target(16, 4, 7);
    target.AddEdge(0, 1);
    const uint64_t before = target.Digest();
    // The bad part comes last, after a good one that could be written.
    const AgmConnectivitySketch* parts[] = {&good, &bad};
    EXPECT_EQ(target.AssignSum(parts).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(target.Digest(), before);
  }
}

TEST(AgmSketchAssignSumTest, ConsumingForestEqualsConstForest) {
  const AgmConnectivitySketch sketch = GoldenSketch(64, 0, 7, 4000);
  const uint64_t digest = sketch.Digest();
  const std::vector<Edge> kept = sketch.SpanningForest();
  EXPECT_EQ(sketch.Digest(), digest);
  AgmConnectivitySketch consumed = sketch;
  EXPECT_EQ(EdgesOf(std::move(consumed).SpanningForest()), EdgesOf(kept));
}

TEST(AgmSketchAssignSumTest, KSketchMatchesSequentialMergeAndChecksFirst) {
  Rng rng(41);
  const std::vector<AgmKConnectivitySketch> parts =
      ShardedParts(AgmKConnectivitySketch(24, 3, 0, 9),
                   RandomUpdateStream(24, 800, 0.25, rng), 3);
  AgmKConnectivitySketch reference(24, 3, 0, 9);
  for (const AgmKConnectivitySketch& part : parts) {
    ASSERT_TRUE(reference.TryMergeFrom(part).ok());
  }
  std::vector<const AgmKConnectivitySketch*> pointers = PointersTo(parts);

  AgmKConnectivitySketch target(24, 3, 0, 9);
  target.AddEdge(0, 1);
  const StatusOr<uint64_t> digest = target.AssignSum(pointers);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(*digest, reference.Digest());
  EXPECT_EQ(target.Digest(), reference.Digest());
  const UndirectedGraph certificate = target.Certificate();
  EXPECT_EQ(target.Digest(), reference.Digest());  // const: untouched
  EXPECT_EQ(EdgesOf(certificate.edges()),
            EdgesOf(reference.Certificate().edges()));
  EXPECT_EQ(EdgesOf(std::move(target).Certificate().edges()),
            EdgesOf(certificate.edges()));
  EXPECT_DOUBLE_EQ(CertificateMinCut(certificate), reference.MinCutUpToK());

  // n, k, rounds and seed each differ once.
  for (const AgmKConnectivitySketch& bad :
       {AgmKConnectivitySketch(25, 3, 0, 9),
        AgmKConnectivitySketch(24, 2, 0, 9),
        AgmKConnectivitySketch(24, 3, 6, 9),
        AgmKConnectivitySketch(24, 3, 0, 10)}) {
    AgmKConnectivitySketch untouched = reference;
    pointers.push_back(&bad);
    EXPECT_EQ(untouched.AssignSum(pointers).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(untouched.Digest(), reference.Digest());
    pointers.pop_back();
  }
}

TEST(AgmKConnectivityTest, CertificateMinCutRules) {
  EXPECT_EQ(CertificateMinCut(UndirectedGraph(4)), 0.0);  // no edges
  UndirectedGraph split(4);
  split.AddEdge(0, 1, 1.0);
  split.AddEdge(2, 3, 1.0);
  EXPECT_EQ(CertificateMinCut(split), 0.0);  // disconnected
  split.AddEdge(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(CertificateMinCut(split), 1.0);
}

TEST(AgmSketchGoldenTest, DigestsAndForestsMatchRecordedValues) {
  const GoldenCase cases[] = {
      {2, 0, 9, 1000, 0x5a6ff6b2fc346125ULL,
       {{0, 1}}},
      {7, 0, 3, 5000, 0x9812c2f5850c8c62ULL,
       {{0, 2}, {1, 2}, {2, 6}, {3, 5}, {5, 6}, {3, 4}}},
      {64, 0, 7, 65536, 0xbde280f6f9b34937ULL,
       {{1, 58}, {2, 26}, {3, 35}, {4, 55}, {6, 17}, {7, 19}, {8, 13},
        {9, 31}, {10, 23}, {11, 29}, {12, 33}, {14, 32}, {15, 56}, {16, 17},
        {20, 56}, {21, 50}, {22, 61}, {23, 26}, {24, 41}, {25, 40}, {27, 53},
        {24, 28}, {30, 61}, {31, 62}, {17, 34}, {36, 59}, {37, 49}, {38, 51},
        {39, 59}, {42, 49}, {44, 60}, {40, 45}, {38, 46}, {47, 56}, {48, 51},
        {50, 56}, {51, 52}, {49, 53}, {0, 54}, {25, 55}, {13, 57}, {60, 61},
        {26, 62}, {50, 63}, {25, 54}, {39, 58}, {35, 49}, {7, 18}, {23, 25},
        {12, 32}, {24, 40}, {25, 39}, {43, 60}, {38, 50}, {25, 53}, {39, 57},
        {12, 31}, {6, 15}, {25, 38}, {26, 60}, {10, 19}, {12, 29}, {5, 63}}},
      {100, 8, 12345, 32768, 0xe45f5f44900f4df1ULL,
       {{1, 57}, {3, 15}, {4, 39}, {5, 12}, {6, 70}, {8, 97}, {9, 12},
        {10, 36}, {7, 11}, {12, 63}, {13, 36}, {16, 43}, {17, 28}, {18, 92},
        {21, 73}, {22, 66}, {23, 46}, {24, 25}, {27, 99}, {28, 96}, {29, 63},
        {28, 30}, {1, 33}, {38, 75}, {13, 40}, {39, 41}, {44, 55}, {45, 65},
        {47, 81}, {2, 48}, {13, 49}, {50, 69}, {51, 77}, {53, 75}, {54, 79},
        {53, 56}, {14, 58}, {35, 59}, {61, 63}, {64, 97}, {65, 76}, {28, 66},
        {67, 91}, {7, 70}, {63, 71}, {38, 78}, {79, 90}, {80, 83}, {37, 84},
        {35, 86}, {50, 87}, {62, 88}, {83, 89}, {85, 92}, {58, 93}, {29, 98},
        {1, 56}, {13, 48}, {3, 14}, {39, 40}, {13, 35}, {35, 58}, {16, 42},
        {28, 95}, {21, 72}, {11, 25}, {26, 89}, {59, 99}, {1, 32}, {37, 95},
        {44, 54}, {65, 75}, {2, 47}, {38, 77}, {39, 52}, {38, 74}, {28, 60},
        {12, 62}, {16, 64}, {67, 90}, {50, 68}, {79, 89}, {35, 85}, {13, 34},
        {16, 41}, {38, 73}, {23, 44}, {1, 31}, {28, 94}, {44, 53}, {59, 98},
        {37, 82}, {17, 25}, {44, 52}, {28, 93}, {79, 87}, {11, 20}, {11, 19}}},
      {512, 0, 81, 600, 0x79d1d1542fa83d66ULL,
       {{0, 504}, {2, 502}, {4, 253}, {9, 204}, {10, 225}, {13, 428},
        {14, 225}, {15, 257}, {17, 378}, {18, 155}, {20, 145}, {22, 136},
        {23, 236}, {24, 38}, {25, 238}, {26, 418}, {27, 362}, {30, 165},
        {31, 411}, {34, 437}, {35, 87}, {37, 367}, {39, 364}, {40, 449},
        {42, 346}, {48, 368}, {49, 334}, {50, 208}, {53, 453}, {54, 299},
        {55, 389}, {56, 497}, {59, 134}, {60, 414}, {61, 288}, {62, 325},
        {63, 148}, {64, 468}, {65, 449}, {66, 441}, {69, 500}, {70, 401},
        {71, 251}, {74, 359}, {16, 76}, {77, 454}, {80, 171}, {82, 174},
        {83, 269}, {84, 136}, {85, 174}, {86, 485}, {88, 490}, {90, 399},
        {92, 122}, {1, 94}, {96, 472}, {97, 265}, {98, 433}, {100, 474},
        {103, 428}, {106, 359}, {108, 305}, {38, 109}, {110, 484}, {111, 419},
        {112, 440}, {114, 447}, {111, 116}, {120, 461}, {121, 443},
        {124, 207}, {125, 497}, {126, 271}, {128, 332}, {130, 488},
        {131, 215}, {132, 351}, {133, 289}, {140, 267}, {146, 438},
        {147, 175}, {148, 336}, {149, 501}, {140, 152}, {154, 293},
        {159, 223}, {65, 161}, {162, 231}, {163, 291}, {164, 195}, {167, 385},
        {168, 246}, {171, 371}, {172, 372}, {173, 293}, {177, 286},
        {178, 219}, {179, 315}, {183, 392}, {184, 367}, {185, 321},
        {186, 410}, {188, 249}, {189, 225}, {190, 310}, {192, 256},
        {193, 227}, {194, 241}, {196, 288}, {198, 424}, {200, 244}, {95, 201},
        {202, 498}, {209, 503}, {41, 210}, {99, 212}, {221, 332}, {228, 401},
        {229, 238}, {233, 457}, {234, 416}, {235, 407}, {236, 421},
        {237, 284}, {239, 324}, {160, 240}, {242, 394}, {244, 257},
        {245, 353}, {247, 390}, {211, 248}, {250, 475}, {25, 252}, {83, 254},
        {256, 272}, {258, 459}, {260, 388}, {261, 351}, {263, 324},
        {264, 275}, {266, 425}, {270, 392}, {273, 401}, {246, 274},
        {276, 343}, {277, 492}, {22, 279}, {282, 368}, {287, 445}, {289, 402},
        {290, 445}, {292, 489}, {294, 318}, {295, 396}, {38, 300}, {61, 301},
        {303, 311}, {308, 407}, {309, 501}, {165, 314}, {95, 315}, {316, 403},
        {317, 441}, {319, 428}, {320, 473}, {321, 323}, {326, 343},
        {148, 327}, {54, 329}, {218, 330}, {331, 406}, {270, 332}, {333, 373},
        {334, 506}, {112, 337}, {338, 394}, {341, 360}, {197, 342},
        {270, 345}, {347, 380}, {348, 445}, {172, 354}, {355, 394},
        {321, 358}, {194, 363}, {155, 364}, {132, 366}, {374, 449},
        {289, 375}, {290, 377}, {379, 445}, {382, 423}, {291, 383}, {74, 384},
        {126, 387}, {389, 484}, {145, 393}, {395, 446}, {34, 398}, {404, 442},
        {405, 484}, {305, 410}, {32, 412}, {416, 429}, {305, 417}, {422, 426},
        {369, 427}, {430, 447}, {204, 435}, {367, 444}, {30, 448}, {450, 461},
        {16, 452}, {454, 458}, {157, 456}, {460, 483}, {421, 463}, {464, 486},
        {157, 470}, {440, 472}, {390, 476}, {478, 481}, {332, 482},
        {123, 483}, {10, 485}, {464, 487}, {246, 491}, {190, 492}, {318, 494},
        {138, 496}, {10, 497}, {456, 499}, {165, 503}, {331, 510}, {396, 511},
        {0, 163}, {1, 55}, {329, 502}, {7, 403}, {204, 271}, {18, 312},
        {145, 342}, {116, 421}, {38, 130}, {26, 416}, {27, 483}, {115, 503},
        {31, 383}, {32, 498}, {34, 394}, {87, 242}, {41, 271}, {129, 346},
        {47, 413}, {162, 334}, {51, 115}, {134, 321}, {115, 414}, {325, 378},
        {148, 302}, {241, 269}, {22, 41}, {88, 172}, {104, 399}, {122, 329},
        {212, 238}, {195, 474}, {419, 425}, {137, 443}, {207, 437},
        {311, 402}, {138, 300}, {140, 282}, {142, 315}, {146, 159},
        {175, 416}, {384, 470}, {383, 415}, {246, 270}, {161, 173},
        {177, 438}, {154, 178}, {184, 404}, {188, 310}, {193, 485},
        {194, 234}, {116, 196}, {197, 266}, {15, 41}, {167, 211}, {137, 218},
        {233, 372}, {237, 483}, {359, 390}, {160, 459}, {324, 406}, {5, 275},
        {70, 507}, {201, 489}, {173, 407}, {97, 276}, {345, 360}, {345, 369},
        {290, 333}, {38, 422}, {25, 447}, {389, 461}, {405, 451}, {438, 487},
        {243, 478}, {232, 451}, {5, 337}, {7, 160}, {18, 415}, {41, 342},
        {47, 273}, {95, 323}, {308, 378}, {118, 251}, {299, 429}, {192, 265},
        {238, 489}, {104, 228}, {384, 506}, {163, 472}, {47, 129}, {148, 195},
        {134, 167}, {231, 345}, {177, 284}, {17, 404}, {41, 192}, {175, 325},
        {243, 415}, {123, 351}, {324, 351}, {173, 441}, {333, 503}, {63, 142},
        {314, 441}, {51, 359}, {251, 272}, {99, 137}, {63, 419}, {304, 490},
        {408, 490}, {302, 413}, {192, 405}, {25, 155}, {266, 351}, {374, 490},
        {66, 155}}},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n));
    const AgmConnectivitySketch sketch =
        GoldenSketch(c.n, c.rounds, c.seed, c.count);
    EXPECT_EQ(sketch.Digest(), c.digest);
    EXPECT_EQ(EdgesOf(sketch.SpanningForest()), c.forest);
  }
}

TEST(AgmSketchGoldenTest, SizesAtTheIngestDefault) {
  const AgmConnectivitySketch sketch = GoldenSketch(512, 0, 81, 600);
  EXPECT_EQ(sketch.SpanningForest().size(), 353u);
  EXPECT_EQ(sketch.SizeInBits(), 22708224);
  EXPECT_EQ(sketch.MeasurementCount(), 354816);
}

TEST(AgmSketchGoldenTest, KConnectivityDigestAndCertificate) {
  AgmKConnectivitySketch sketch(64, 3, 0, 5);
  Rng rng(99);
  ApplyUpdates(RandomUpdateStream(64, 20000, 0.2, rng), sketch);
  EXPECT_EQ(sketch.Digest(), 0xdcbf2d61f8ea510cULL);
  EXPECT_DOUBLE_EQ(sketch.MinCutUpToK(), 3.0);
  EXPECT_EQ(sketch.Certificate().num_edges(), 187);
}

}  // namespace
}  // namespace dcs
