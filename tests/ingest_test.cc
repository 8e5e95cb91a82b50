// The streaming ingestion pipeline: gutter/shard bit-identity across
// producer counts and flush interleavings, delete validation at admission,
// epoch/snapshot consistency, the ingestor's metrics, the sealed k-forest
// certificate, and the replayable binary stream format (round trips +
// corruption).

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "stream/ingest.h"
#include "util/metrics.h"
#include "util/random.h"

namespace dcs {
namespace {

// A workload whose deletes always follow their inserts in stream order.
std::vector<EdgeUpdate> Workload(int n, int64_t count, uint64_t seed) {
  Rng rng(seed);
  return RandomUpdateStream(n, count, 0.25, rng);
}

// Applies `updates` to a serial sketch.
template <typename Sketch>
void ApplySerially(const std::vector<EdgeUpdate>& updates, Sketch& sketch) {
  for (const EdgeUpdate& update : updates) {
    if (update.is_delete) {
      sketch.RemoveEdge(update.u, update.v);
    } else {
      sketch.AddEdge(update.u, update.v);
    }
  }
}

// Serial ground truth for a workload (k == 0 sketches).
uint64_t SerialDigest(int n, int rounds, uint64_t seed,
                      const std::vector<EdgeUpdate>& updates) {
  AgmConnectivitySketch sketch(n, rounds, seed);
  ApplySerially(updates, sketch);
  return sketch.Digest();
}

TEST(StreamIngestorTest, SingleShardMatchesDirectSketch) {
  const int n = 32;
  const std::vector<EdgeUpdate> updates = Workload(n, 500, 3);
  StreamIngestorOptions options;
  options.num_shards = 1;
  options.gutter_capacity = 7;  // deliberately odd: many partial flushes
  options.rounds = 4;
  options.seed = 5;
  StreamIngestor ingestor(n, options);
  for (const EdgeUpdate& update : updates) {
    ASSERT_TRUE(ingestor.Push(update).ok());
  }
  ASSERT_TRUE(ingestor.Barrier().ok());
  EXPECT_EQ(ingestor.snapshot()->digest, SerialDigest(n, 4, 5, updates));
  EXPECT_EQ(ingestor.snapshot()->updates_applied,
            static_cast<int64_t>(updates.size()));
}

TEST(StreamIngestorTest, BitIdenticalAcrossShardAndGutterConfigs) {
  const int n = 40;
  const std::vector<EdgeUpdate> updates = Workload(n, 800, 7);
  const uint64_t reference = SerialDigest(n, 5, 9, updates);
  for (const int shards : {1, 3, 8}) {
    for (const int gutter : {1, 16, 4096}) {
      // num_threads > 1 drains the gutters in the barrier's parallel flush.
      for (const int threads : {1, 2, 4}) {
        StreamIngestorOptions options;
        options.num_shards = shards;
        options.gutter_capacity = gutter;
        options.num_threads = threads;
        options.rounds = 5;
        options.seed = 9;
        StreamIngestor ingestor(n, options);
        for (const EdgeUpdate& update : updates) {
          ASSERT_TRUE(ingestor.Push(update).ok());
        }
        ASSERT_TRUE(ingestor.Barrier().ok());
        EXPECT_EQ(ingestor.snapshot()->digest, reference)
            << "shards=" << shards << " gutter=" << gutter
            << " threads=" << threads;
      }
    }
  }
}

TEST(StreamIngestorTest, BitIdenticalAcrossInserterCounts) {
  // Per-producer streams (each producer's deletes target only its own
  // inserts) whose union is pushed by 1, 2, and 4 threads; every run must
  // seal the same digest.
  const int n = 40;
  std::vector<std::vector<EdgeUpdate>> streams;
  std::vector<EdgeUpdate> all;
  for (int p = 0; p < 4; ++p) {
    streams.push_back(Workload(n, 300, SubtaskSeed(21, p)));
    all.insert(all.end(), streams.back().begin(), streams.back().end());
  }
  const uint64_t reference = SerialDigest(n, 4, 23, all);
  for (const int inserters : {1, 2, 4}) {
    StreamIngestorOptions options;
    options.num_shards = 4;
    options.gutter_capacity = 32;
    options.rounds = 4;
    options.seed = 23;
    StreamIngestor ingestor(n, options);
    std::vector<std::thread> producers;
    const int per = 4 / inserters;
    for (int p = 0; p < inserters; ++p) {
      producers.emplace_back([&streams, &ingestor, p, per] {
        for (int s = p * per; s < (p + 1) * per; ++s) {
          for (const EdgeUpdate& update : streams[static_cast<size_t>(s)]) {
            const Status status = ingestor.Push(update);
            DCS_CHECK(status.ok());
          }
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    ASSERT_TRUE(ingestor.Barrier().ok());
    EXPECT_EQ(ingestor.snapshot()->digest, reference)
        << "inserters=" << inserters;
  }
}

TEST(StreamIngestorTest, RejectsInvalidEndpoints) {
  StreamIngestor ingestor(8, {});
  EXPECT_EQ(ingestor.PushInsert(-1, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ingestor.PushInsert(0, 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ingestor.PushInsert(5, 5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ingestor.updates_accepted(), 0);
}

TEST(StreamIngestorTest, RejectsDeleteOfNeverInsertedEdge) {
  StreamIngestor ingestor(8, {});
  EXPECT_EQ(ingestor.PushDelete(1, 2).code(),
            StatusCode::kFailedPrecondition);
  // The rejected delete never reached a sketch: the sealed state is empty.
  ASSERT_TRUE(ingestor.Barrier().ok());
  EXPECT_EQ(ingestor.snapshot()->digest, StreamIngestor(8, {}).snapshot()->digest);
}

TEST(StreamIngestorTest, DeleteValidationTracksMultiplicity) {
  StreamIngestor ingestor(8, {});
  ASSERT_TRUE(ingestor.PushInsert(1, 2).ok());
  ASSERT_TRUE(ingestor.PushInsert(2, 1).ok());  // parallel edge, canonical
  ASSERT_TRUE(ingestor.PushDelete(1, 2).ok());
  ASSERT_TRUE(ingestor.PushDelete(2, 1).ok());
  EXPECT_EQ(ingestor.PushDelete(1, 2).code(),
            StatusCode::kFailedPrecondition);
  // Re-inserting revives the edge for one more delete.
  ASSERT_TRUE(ingestor.PushInsert(1, 2).ok());
  ASSERT_TRUE(ingestor.PushDelete(1, 2).ok());
}

TEST(StreamIngestorTest, DeleteValidationMatchesMultisetModel) {
  // Differential test of the live-edge ledger through Push alone: 600k
  // updates over six configurations, 45% of them deletes of uniformly
  // random pairs. Small n deletes edges to zero and re-inserts them
  // constantly (backward-shift deletion); n = 700 rejects most deletes
  // and grows each shard's table several times.
  constexpr int64_t kUpdatesPerConfig = 100000;
  for (const int shards : {1, 4}) {
    for (const int n : {5, 40, 700}) {
      StreamIngestorOptions options;
      options.num_shards = shards;
      options.rounds = 4;
      options.seed = 61;
      StreamIngestor ingestor(n, options);
      AgmConnectivitySketch direct(n, options.rounds, options.seed);
      std::map<std::pair<VertexId, VertexId>, int64_t> model;
      Rng rng(SubtaskSeed(67, shards * 1000 + n));
      int64_t mismatches = 0;
      int64_t rejected = 0;
      for (int64_t i = 0; i < kUpdatesPerConfig; ++i) {
        const auto u = static_cast<VertexId>(rng.UniformInt(n));
        auto v = static_cast<VertexId>(rng.UniformInt(n - 1));
        if (v >= u) ++v;
        const bool is_delete = rng.Bernoulli(0.45);
        const std::pair<VertexId, VertexId> edge{std::min(u, v),
                                                 std::max(u, v)};
        const auto it = model.find(edge);
        const bool admissible = !is_delete || it != model.end();
        const Status status = ingestor.Push(EdgeUpdate{u, v, is_delete});
        const StatusCode expected =
            admissible ? StatusCode::kOk : StatusCode::kFailedPrecondition;
        if (status.code() != expected) ++mismatches;
        if (!admissible) {
          ++rejected;
          continue;
        }
        if (is_delete) {
          if (--it->second == 0) model.erase(it);
          direct.RemoveEdge(u, v);
        } else {
          ++model[edge];
          direct.AddEdge(u, v);
        }
      }
      EXPECT_EQ(mismatches, 0) << "shards=" << shards << " n=" << n;
      EXPECT_GT(rejected, 0) << "shards=" << shards << " n=" << n;
      EXPECT_EQ(ingestor.updates_accepted(), kUpdatesPerConfig - rejected);
      ASSERT_TRUE(ingestor.Barrier().ok());
      EXPECT_EQ(ingestor.snapshot()->digest, direct.Digest())
          << "shards=" << shards << " n=" << n;
    }
  }
}

TEST(StreamIngestorTest, MetricsCountAppliedRejectedFlushedAndSealed) {
#if !DCS_METRICS_ENABLED
  GTEST_SKIP() << "library compiled with DCS_ENABLE_METRICS=OFF";
#endif
  const auto counter = [](const metrics::MetricsSnapshot& diff,
                          const std::string& name) -> int64_t {
    const auto it = diff.counters.find(name);
    return it == diff.counters.end() ? 0 : it->second;
  };
  const metrics::MetricsSnapshot before = metrics::Registry::Get().Snapshot();
  const int n = 16;
  StreamIngestorOptions options;
  options.num_shards = 2;
  options.gutter_capacity = 16;
  options.rounds = 4;
  options.seed = 41;
  StreamIngestor ingestor(n, options);
  // Three rejections: out of range, self-loop, delete of a dead edge.
  EXPECT_FALSE(ingestor.PushInsert(-1, 2).ok());
  EXPECT_FALSE(ingestor.PushInsert(3, 3).ok());
  EXPECT_FALSE(ingestor.PushDelete(0, 1).ok());
  int barriers = 0;
  const std::vector<EdgeUpdate> updates = Workload(n, 300, 41);
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(ingestor.Push(updates[i]).ok());
    if (i % 100 == 99) {
      ASSERT_TRUE(ingestor.Barrier().ok());
      ++barriers;
    }
  }
  ASSERT_TRUE(ingestor.Barrier().ok());
  ++barriers;
  const metrics::MetricsSnapshot diff =
      metrics::Registry::Get().Snapshot().DiffSince(before);
  EXPECT_EQ(counter(diff, "stream.update.applied"),
            ingestor.updates_accepted());
  EXPECT_EQ(counter(diff, "stream.update.rejected"), 3);
  EXPECT_EQ(counter(diff, "stream.epoch.sealed"), barriers);
  // Every full gutter flushes once, plus partial flushes at barriers.
  EXPECT_GE(counter(diff, "stream.gutter.flushed"), 300 / 16);
  // One merge/forest sample per seal: each Barrier plus the epoch-0 seal.
  EXPECT_EQ(diff.distributions.at("stream.barrier.merge_ns").count,
            barriers + 1);
  EXPECT_EQ(diff.distributions.at("stream.barrier.forest_ns").count,
            barriers + 1);
}

TEST(StreamIngestorTest, ShutdownDrainsSealsAndRejectsLatePushes) {
  const int n = 24;
  const std::vector<EdgeUpdate> updates = Workload(n, 400, 31);
  StreamIngestorOptions options;
  options.num_shards = 4;
  options.gutter_capacity = 32;  // leaves buffered updates for the drain
  options.rounds = 4;
  options.seed = 31;
  StreamIngestor ingestor(n, options);
  for (const EdgeUpdate& update : updates) {
    ASSERT_TRUE(ingestor.Push(update).ok());
  }
  const auto final_epoch = ingestor.Shutdown();
  ASSERT_TRUE(final_epoch.ok()) << final_epoch.status().ToString();
  EXPECT_TRUE(ingestor.draining());
  // Nothing buffered was lost: the final snapshot holds every accepted
  // update and matches the serial ground truth bit for bit.
  EXPECT_EQ(ingestor.snapshot()->epoch, *final_epoch);
  EXPECT_EQ(ingestor.snapshot()->updates_applied,
            static_cast<int64_t>(updates.size()));
  EXPECT_EQ(ingestor.snapshot()->digest, SerialDigest(n, 4, 31, updates));
  // Draining means draining: late pushes are cleanly refused.
  EXPECT_EQ(ingestor.PushInsert(0, 1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(ingestor.snapshot()->updates_applied,
            static_cast<int64_t>(updates.size()));
}

TEST(StreamIngestorTest, ShutdownUnderConcurrentProducersLosesNothing) {
  // Producers race the drain barrier. The contract: every Push that
  // returned OK is in the final sealed epoch; every Push after the barrier
  // is kUnavailable; nothing is silently dropped either way.
  const int n = 32;
  StreamIngestorOptions options;
  options.num_shards = 4;
  options.gutter_capacity = 16;
  options.seed = 37;
  StreamIngestor ingestor(n, options);
  std::atomic<int64_t> accepted{0};
  std::atomic<bool> saw_unavailable{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(SubtaskSeed(41, p));
      // Insert-only: admission can't reject for multiplicity, so the only
      // legal non-OK outcome is the drain refusal.
      for (int i = 0; i < 4000; ++i) {
        const int u = static_cast<int>(rng.UniformInt(n));
        int v = u;
        while (v == u) v = static_cast<int>(rng.UniformInt(n));
        const Status status = ingestor.PushInsert(u, v);
        if (status.ok()) {
          accepted.fetch_add(1);
        } else {
          ASSERT_EQ(status.code(), StatusCode::kUnavailable);
          saw_unavailable.store(true);
          break;
        }
      }
    });
  }
  // Let the producers get going, then pull the plug mid-stream.
  while (accepted.load() < 400) std::this_thread::yield();
  const auto final_epoch = ingestor.Shutdown();
  for (std::thread& producer : producers) producer.join();
  ASSERT_TRUE(final_epoch.ok()) << final_epoch.status().ToString();
  EXPECT_EQ(ingestor.snapshot()->epoch, *final_epoch);
  EXPECT_EQ(ingestor.snapshot()->updates_applied, accepted.load());
  EXPECT_EQ(ingestor.updates_accepted(), accepted.load());
}

TEST(StreamIngestorTest, EpochsAreMonotonicAndSnapshotsAreStable) {
  const int n = 16;
  StreamIngestorOptions options;
  options.rounds = 4;
  StreamIngestor ingestor(n, options);
  EXPECT_EQ(ingestor.epoch(), 0);

  ASSERT_TRUE(ingestor.PushInsert(0, 1).ok());
  const auto e1 = ingestor.Barrier();
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(*e1, 1);
  const std::shared_ptr<const StreamSnapshot> sealed = ingestor.snapshot();
  EXPECT_EQ(sealed->epoch, 1);
  EXPECT_EQ(sealed->updates_applied, 1);
  const uint64_t sealed_digest = sealed->digest;

  // Ingestion after the barrier must not disturb the held snapshot.
  ASSERT_TRUE(ingestor.PushInsert(2, 3).ok());
  ASSERT_TRUE(ingestor.PushInsert(4, 5).ok());
  EXPECT_EQ(sealed->digest, sealed_digest);
  EXPECT_EQ(sealed->updates_applied, 1);

  const auto e2 = ingestor.Barrier();
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(*e2, 2);
  EXPECT_EQ(ingestor.snapshot()->updates_applied, 3);
  EXPECT_GT(ingestor.snapshot()->epoch, sealed->epoch);
}

TEST(StreamIngestorTest, SnapshotTracksConnectivity) {
  const int n = 12;
  StreamIngestorOptions options;
  options.num_shards = 3;
  StreamIngestor ingestor(n, options);
  EXPECT_EQ(ingestor.snapshot()->components, n);
  // A path 0-1-...-11 connects everything.
  for (int v = 0; v + 1 < n; ++v) {
    ASSERT_TRUE(ingestor.PushInsert(v, v + 1).ok());
  }
  ASSERT_TRUE(ingestor.Barrier().ok());
  EXPECT_TRUE(ingestor.snapshot()->connected);
  EXPECT_EQ(ingestor.snapshot()->components, 1);
  // Deleting a path edge splits it in two.
  ASSERT_TRUE(ingestor.PushDelete(5, 6).ok());
  ASSERT_TRUE(ingestor.Barrier().ok());
  EXPECT_FALSE(ingestor.snapshot()->connected);
  EXPECT_EQ(ingestor.snapshot()->components, 2);
}

TEST(StreamIngestorTest, KSnapshotCertificateAndMinCut) {
  // A 3-bridge dumbbell through the k = 5 ingestor: min cut 3, then 2
  // after one bridge delete.
  const UndirectedGraph g = DumbbellGraph(6, 3);
  StreamIngestorOptions options;
  options.num_shards = 2;
  options.k = 5;
  StreamIngestor ingestor(12, options);
  for (const Edge& e : g.edges()) {
    ASSERT_TRUE(ingestor.PushInsert(e.src, e.dst).ok());
  }
  ASSERT_TRUE(ingestor.Barrier().ok());
  ASSERT_TRUE(ingestor.snapshot()->certificate.has_value());
  EXPECT_DOUBLE_EQ(ingestor.snapshot()->min_cut_up_to_k, 3.0);
  ASSERT_TRUE(ingestor.PushDelete(0, 6).ok());
  ASSERT_TRUE(ingestor.Barrier().ok());
  EXPECT_DOUBLE_EQ(ingestor.snapshot()->min_cut_up_to_k, 2.0);
}

TEST(StreamIngestorTest, CertificateCutMovesOnlyAtBarriers) {
  const UndirectedGraph g = DumbbellGraph(6, 3);
  StreamIngestorOptions options;
  options.k = 5;
  StreamIngestor ingestor(12, options);
  const VertexSet left_half = MakeVertexSet(12, {0, 1, 2, 3, 4, 5});
  const auto certificate_cut = [&] {
    return ingestor.snapshot()->certificate->CutWeight(left_half);
  };

  // Epoch 0: nothing ingested, the cut is empty.
  EXPECT_DOUBLE_EQ(certificate_cut(), 0.0);

  for (const Edge& e : g.edges()) {
    ASSERT_TRUE(ingestor.PushInsert(e.src, e.dst).ok());
  }
  // Not sealed yet: queries still see epoch 0.
  EXPECT_DOUBLE_EQ(certificate_cut(), 0.0);
  ASSERT_TRUE(ingestor.Barrier().ok());
  // Sealed: the certificate preserves the 3-bridge cut exactly (< k).
  EXPECT_DOUBLE_EQ(certificate_cut(), 3.0);
}

// --- The kept seal sketch: every seal sums into and consumes the same
// sketch, so nothing from one epoch's in-place extraction may leak into
// the next. ---

std::vector<std::pair<VertexId, VertexId>> Pairs(
    const std::vector<Edge>& edges) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (const Edge& e : edges) pairs.emplace_back(e.src, e.dst);
  return pairs;
}

// The updates of each epoch; an empty chunk is an epoch with no updates.
std::vector<std::vector<EdgeUpdate>> EpochChunks(
    const std::vector<EdgeUpdate>& updates) {
  const size_t quarter = updates.size() / 4;
  return {{updates.begin(), updates.begin() + quarter},
          {updates.begin() + quarter, updates.begin() + 2 * quarter},
          {},
          {updates.begin() + 2 * quarter, updates.begin() + 3 * quarter},
          {updates.begin() + 3 * quarter, updates.end()},
          {}};
}

TEST(StreamIngestorTest, KeptSealSketchMatchesFreshSerialSketchEveryEpoch) {
  const int n = 48;
  const std::vector<EdgeUpdate> updates = Workload(n, 1200, 29);
  StreamIngestorOptions options;
  options.num_shards = 4;
  options.gutter_capacity = 13;
  options.seed = 31;
  StreamIngestor ingestor(n, options);
  AgmConnectivitySketch serial(n, 0, 31);
  uint64_t previous = ingestor.snapshot()->digest;
  EXPECT_EQ(previous, serial.Digest());
  for (const std::vector<EdgeUpdate>& chunk : EpochChunks(updates)) {
    for (const EdgeUpdate& update : chunk) {
      ASSERT_TRUE(ingestor.Push(update).ok());
    }
    ApplySerially(chunk, serial);
    const StatusOr<int64_t> epoch = ingestor.Barrier();
    ASSERT_TRUE(epoch.ok());
    SCOPED_TRACE("epoch " + std::to_string(*epoch));
    const std::shared_ptr<const StreamSnapshot> snapshot = ingestor.snapshot();
    EXPECT_EQ(snapshot->digest, serial.Digest());
    if (chunk.empty()) {
      EXPECT_EQ(snapshot->digest, previous);
    }
    EXPECT_EQ(Pairs(snapshot->forest), Pairs(serial.SpanningForest()));
    EXPECT_EQ(snapshot->components, serial.CountComponents());
    EXPECT_EQ(snapshot->connected, serial.IsConnected());
    previous = snapshot->digest;
  }
}

TEST(StreamIngestorTest, KSealCertificateAndMinCutMatchSerialEveryEpoch) {
  // A 2-bridge dumbbell, then each bridge deleted, then random churn: the
  // min cut reads 2 (saturated at k), 1, 1 (an empty epoch), 0
  // (disconnected), and whatever the churn leaves.
  const int n = 16;
  const UndirectedGraph graph = DumbbellGraph(8, 2);
  std::vector<EdgeUpdate> dumbbell;
  for (const Edge& e : graph.edges()) {
    dumbbell.push_back(EdgeUpdate{e.src, e.dst, false});
  }
  const std::vector<std::vector<EdgeUpdate>> epochs = {
      dumbbell, {EdgeUpdate{0, 8, true}}, {}, {EdgeUpdate{1, 9, true}},
      Workload(n, 300, 37), {}};
  const double expected_cuts[] = {2, 1, 1, 0};
  StreamIngestorOptions options;
  options.num_shards = 3;
  options.gutter_capacity = 5;
  options.k = 2;
  options.seed = 43;
  StreamIngestor ingestor(n, options);
  AgmKConnectivitySketch serial(n, 2, 0, 43);
  for (const std::vector<EdgeUpdate>& chunk : epochs) {
    for (const EdgeUpdate& update : chunk) {
      ASSERT_TRUE(ingestor.Push(update).ok());
    }
    ApplySerially(chunk, serial);
    const StatusOr<int64_t> epoch = ingestor.Barrier();
    ASSERT_TRUE(epoch.ok());
    SCOPED_TRACE("epoch " + std::to_string(*epoch));
    const std::shared_ptr<const StreamSnapshot> snapshot = ingestor.snapshot();
    EXPECT_EQ(snapshot->digest, serial.Digest());
    ASSERT_TRUE(snapshot->certificate.has_value());
    EXPECT_EQ(Pairs(snapshot->certificate->edges()),
              Pairs(serial.Certificate().edges()));
    EXPECT_DOUBLE_EQ(snapshot->min_cut_up_to_k, serial.MinCutUpToK());
    if (*epoch <= 4) {
      EXPECT_DOUBLE_EQ(snapshot->min_cut_up_to_k, expected_cuts[*epoch - 1]);
    }
  }
}

// --- The replayable binary stream format. ---

TEST(BinaryStreamTest, RoundTripsThroughBytes) {
  BinaryStreamWriter writer(16);
  writer.Append(EdgeUpdate{1, 2, false});
  writer.Append(EdgeUpdate{5, 3, false});
  writer.Append(EdgeUpdate{1, 2, true});
  BitWriter bits;
  writer.Seal(bits);
  BitReader bit_reader(bits.bytes());
  auto reader = BinaryStreamReader::FromBytes(bit_reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_vertices(), 16);
  EXPECT_EQ(reader->update_count(), 3);
  const auto first = reader->Next();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->u, 1);
  EXPECT_EQ(first->v, 2);
  EXPECT_FALSE(first->is_delete);
  ASSERT_TRUE(reader->Next().ok());
  const auto third = reader->Next();
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->is_delete);
  EXPECT_TRUE(reader->AtEnd());
  EXPECT_EQ(reader->Next().status().code(), StatusCode::kOutOfRange);
}

TEST(BinaryStreamTest, RoundTripsThroughFile) {
  const std::string path = testing::TempDir() + "/updates.bin";
  Rng rng(13);
  const std::vector<EdgeUpdate> updates = RandomUpdateStream(24, 200, 0.2, rng);
  BinaryStreamWriter writer(24);
  for (const EdgeUpdate& update : updates) writer.Append(update);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto reader = BinaryStreamReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->update_count(), static_cast<int64_t>(updates.size()));
  for (const EdgeUpdate& expected : updates) {
    const auto got = reader->Next();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->u, expected.u);
    EXPECT_EQ(got->v, expected.v);
    EXPECT_EQ(got->is_delete, expected.is_delete);
  }
}

TEST(BinaryStreamTest, MissingFileIsNotFound) {
  EXPECT_EQ(BinaryStreamReader::FromFile("/nonexistent/updates.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(BinaryStreamTest, EveryBitFlipIsDetected) {
  BinaryStreamWriter writer(8);
  writer.Append(EdgeUpdate{0, 1, false});
  writer.Append(EdgeUpdate{1, 2, false});
  BitWriter bits;
  writer.Seal(bits);
  for (size_t byte = 0; byte < bits.bytes().size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = bits.bytes();
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      BitReader reader(corrupt);
      auto stream = BinaryStreamReader::FromBytes(reader);
      if (!stream.ok()) continue;  // rejected at the envelope: detected
      // If the envelope survived (flip in zero padding), the records must
      // still parse to something valid or fail — never abort.
      while (!stream->AtEnd()) {
        if (!stream->Next().ok()) break;
      }
    }
  }
}

TEST(BinaryStreamTest, ChecksumCatchesPayloadFlip) {
  BinaryStreamWriter writer(8);
  writer.Append(EdgeUpdate{0, 1, false});
  BitWriter bits;
  writer.Seal(bits);
  std::vector<uint8_t> corrupt = bits.bytes();
  corrupt[corrupt.size() / 2] ^= 0x10;
  BitReader reader(corrupt);
  EXPECT_EQ(BinaryStreamReader::FromBytes(reader).status().code(),
            StatusCode::kDataLoss);
}

TEST(BinaryStreamTest, TruncationIsDataLoss) {
  BinaryStreamWriter writer(8);
  for (int i = 0; i < 6; ++i) {
    writer.Append(EdgeUpdate{0, static_cast<VertexId>(i + 1), false});
  }
  BitWriter bits;
  writer.Seal(bits);
  for (size_t keep = 0; keep < bits.bytes().size(); keep += 3) {
    std::vector<uint8_t> truncated(bits.bytes().begin(),
                                   bits.bytes().begin() +
                                       static_cast<std::ptrdiff_t>(keep));
    BitReader reader(truncated);
    EXPECT_EQ(BinaryStreamReader::FromBytes(reader).status().code(),
              StatusCode::kDataLoss)
        << "kept " << keep << " bytes";
  }
}

TEST(BinaryStreamTest, ReplayThroughIngestorMatchesDirectPush) {
  const int n = 32;
  const std::vector<EdgeUpdate> updates = Workload(n, 400, 29);
  BinaryStreamWriter writer(n);
  for (const EdgeUpdate& update : updates) writer.Append(update);
  BitWriter bits;
  writer.Seal(bits);
  BitReader bit_reader(bits.bytes());
  auto reader = BinaryStreamReader::FromBytes(bit_reader);
  ASSERT_TRUE(reader.ok());

  StreamIngestorOptions options;
  options.num_shards = 2;
  options.rounds = 4;
  options.seed = 31;
  StreamIngestor ingestor(n, options);
  const auto applied = ReplayStream(*reader, ingestor, /*updates_per_epoch=*/100);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, static_cast<int64_t>(updates.size()));
  EXPECT_GE(ingestor.epoch(), 4);
  EXPECT_EQ(ingestor.snapshot()->digest, SerialDigest(n, 4, 31, updates));
}

TEST(BinaryStreamTest, RandomUpdateStreamPrefixesAreAdmissible) {
  // Every delete in a generated stream targets a currently-live edge, so a
  // fresh ingestor accepts the whole stream.
  Rng rng(37);
  const std::vector<EdgeUpdate> updates = RandomUpdateStream(16, 600, 0.45, rng);
  StreamIngestor ingestor(16, {});
  for (const EdgeUpdate& update : updates) {
    ASSERT_TRUE(ingestor.Push(update).ok());
  }
}

}  // namespace
}  // namespace dcs