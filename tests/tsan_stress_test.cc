// Thread-sanitizer stress driver for the trial-parallelism layer (no
// gtest: TSan findings are the assertions). Registered with ctest only
// when configured with -DDCS_ENABLE_SANITIZERS=thread; see the root
// CMakeLists.txt.
//
// Hammers the constructs the parallel runners rely on: back-to-back
// ParallelFor loops, ParallelFor over shared read-only graphs with
// pre-built adjacency, and the seed-deterministic trial runners
// themselves at several thread counts; also the serving tier's cluster
// worker admission racing its drain.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "graph/incremental_cut_oracle.h"
#include "lowerbound/forall_encoding.h"
#include "lowerbound/foreach_encoding.h"
#include "serve/cluster.h"
#include "serve/cut_query_service.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "stream/ingest.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

void StressParallelForReuse() {
  // Many loops in a row over one slot vector: each call starts and joins
  // its own threads, so every write of a loop happens-before the next.
  std::vector<int64_t> slots(512);
  for (int round = 0; round < 200; ++round) {
    ParallelFor(4, static_cast<int64_t>(slots.size()),
                [&slots, round](int64_t i) {
                  slots[static_cast<size_t>(i)] = round + i;
                });
  }
  Require(slots[511] == 199 + 511, "parallel-for reuse");
}

void StressBackToBackGrowingLoops() {
  // Tiny and growing counts alternate with no pause, so TSan sees many
  // thread start/join hand-offs between the caller and the threads of
  // consecutive loops.
  constexpr int64_t kMaxCount = 2048;
  std::vector<std::atomic<int>> hits(kMaxCount);
  int64_t grown = 1;
  for (int round = 0; round < 2000; ++round) {
    const int64_t count = (round % 2 == 0) ? grown : 1;
    for (int64_t i = 0; i < count; ++i) {
      hits[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
    }
    ParallelFor(8, count, [&hits](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < count; ++i) {
      Require(hits[static_cast<size_t>(i)].load() == 1,
              "back-to-back loops: index ran exactly once");
    }
    if (round % 2 == 0) grown = grown >= kMaxCount / 2 ? 1 : grown * 2 + 1;
  }
}

void StressSharedGraphReads() {
  // Many threads query cuts on one shared graph and its one CutIndex,
  // built by its constructor alone — the access pattern of the decoders'
  // skeleton graphs.
  Rng rng(5);
  DirectedGraph graph(64);
  for (int e = 0; e < 1000; ++e) {
    const int src = static_cast<int>(rng.UniformInt(64));
    int dst = static_cast<int>(rng.UniformInt(63));
    if (dst >= src) ++dst;
    graph.AddEdge(src, dst, 1.0);
  }
  const CutIndex index(graph);
  std::vector<double> values(64);
  ParallelFor(8, 64, [&](int64_t i) {
    Rng local(SubtaskSeed(77, i));
    VertexSet side = local.RandomBinaryString(64);
    IncrementalCutOracle oracle(graph, index, side);
    for (int step = 0; step < 50; ++step) {
      oracle.Flip(static_cast<VertexId>(local.UniformInt(64)));
    }
    const VertexSet* const sides[] = {&oracle.side()};
    double cut = 0;
    index.CutWeights(sides, std::span<double>(&cut, 1));
    values[static_cast<size_t>(i)] = oracle.value() + cut;
  });
  Require(values.size() == 64, "shared graph reads");
}

void StressTrialRunners() {
  ForAllLowerBoundParams forall;
  forall.inv_epsilon_sq = 8;
  forall.beta = 1;
  forall.num_layers = 2;
  const SeededCutOracleFactory factory = [](const DirectedGraph& g,
                                            Rng& rng) -> CutOracle {
    return NoisyCutOracle(g, 0.05, rng);
  };
  const ForAllTrialResult serial = RunForAllTrials(
      forall, 16, 123, factory, ForAllDecoder::SubsetSelection::kGreedy, 1);
  for (const int threads : {2, 4, 8}) {
    const ForAllTrialResult parallel =
        RunForAllTrials(forall, 16, 123, factory,
                        ForAllDecoder::SubsetSelection::kGreedy, threads);
    Require(parallel.correct == serial.correct, "forall determinism");
  }
  ForEachLowerBoundParams foreach_params;
  foreach_params.inv_epsilon = 8;
  foreach_params.sqrt_beta = 1;
  foreach_params.num_layers = 2;
  const ForEachTrialResult foreach_serial =
      RunForEachTrials(foreach_params, 4, 8, 321, factory, 1);
  for (const int threads : {2, 8}) {
    const ForEachTrialResult parallel =
        RunForEachTrials(foreach_params, 4, 8, 321, factory, threads);
    Require(parallel.correct == foreach_serial.correct,
            "foreach determinism");
  }
}

void StressChannelParallelTransfers() {
  // Concurrent ReliableLink transfers, one link per task with a derived
  // seed, all over one shared message and the shared metrics registry.
  // Per-link state plus per-task seeding means every task's transcript must
  // be bit-identical to a serial replay at every thread count.
  Rng rng(9);
  BitWriter writer;
  for (int b = 0; b < 20000; ++b) {
    writer.WriteBit(static_cast<int>(rng.Next() & 1));
  }
  const Message message = SealMessage(writer);
  constexpr int64_t kTasks = 32;
  auto run_one = [&message](int64_t task) -> int64_t {
    ChannelOptions options;
    options.seed = SubtaskSeed(555, task);
    options.drop_rate = 0.3;
    options.flip_rate = 0.1;
    options.max_rounds = 64;
    ReliableLink link(options);
    const auto delivered = link.Transfer(message);
    Require(delivered.ok(), "channel stress: transfer recovered");
    Require(delivered->bytes == message.bytes,
            "channel stress: recovered bytes are the sender's");
    return link.stats().wire_bits;
  };
  std::vector<int64_t> serial(static_cast<size_t>(kTasks));
  for (int64_t t = 0; t < kTasks; ++t) {
    serial[static_cast<size_t>(t)] = run_one(t);
  }
  for (const int threads : {2, 4, 8}) {
    std::vector<int64_t> parallel(static_cast<size_t>(kTasks));
    ParallelFor(threads, kTasks, [&](int64_t t) {
      parallel[static_cast<size_t>(t)] = run_one(t);
    });
    Require(parallel == serial,
            "channel stress: transcripts identical across thread counts");
  }
}

void StressServeCacheConcurrency(int64_t capacity, int num_sides) {
  // The serving layer's one-mutex cache under contention and eviction
  // pressure: many threads fire AnswerBatch on one service (each batch
  // runs on its caller), all over a cache far smaller than the sides in
  // play, so it evicts constantly. Each thread count starts from a cold
  // cache, so its slots and index grow under the same contention. Warm
  // answers must stay bit-identical to the cold path no matter how
  // lookups, inserts, evictions and index growth interleave.
  Rng rng(13);
  DirectedGraph graph(48);
  for (int e = 0; e < 600; ++e) {
    const int src = static_cast<int>(rng.UniformInt(48));
    int dst = static_cast<int>(rng.UniformInt(47));
    if (dst >= src) ++dst;
    graph.AddEdge(src, dst, 1.0 + static_cast<double>(rng.Next() % 4));
  }

  // Distinct sides, each repeated across tasks so hits and misses mix.
  std::vector<VertexSet> sides;
  std::vector<double> expected;
  for (int i = 0; i < num_sides; ++i) {
    VertexSet side = rng.RandomBinaryString(48);
    side[static_cast<size_t>(i % 48)] = 1;  // never empty
    expected.push_back(graph.CutWeight(side));
    sides.push_back(std::move(side));
  }

  constexpr int64_t kTasks = 24;
  std::vector<int> mismatches(static_cast<size_t>(kTasks), 0);
  for (const int threads : {2, 4, 8}) {
    CutQueryServiceOptions options;
    options.cache_capacity = capacity;
    CutQueryService service(options);
    const auto object = service.RegisterGraph(graph);
    ParallelFor(threads, kTasks, [&](int64_t task) {
      Rng local(SubtaskSeed(4242, task));
      for (int round = 0; round < 20; ++round) {
        std::vector<CutQueryService::Query> batch;
        std::vector<size_t> picks;
        for (int i = 0; i < 16; ++i) {
          picks.push_back(static_cast<size_t>(local.UniformInt(
              static_cast<uint64_t>(num_sides))));
          batch.push_back({object, sides[picks.back()]});
        }
        const std::vector<double> answers = service.AnswerBatch(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (answers[i] != expected[picks[i]]) {
            ++mismatches[static_cast<size_t>(task)];
          }
        }
      }
    });
    Require(service.cache_size() <= capacity,
            "serve stress: capacity respected");
  }
  for (const int count : mismatches) {
    Require(count == 0,
            "serve stress: warm answers bit-identical to cold path");
  }
}

void StressStreamIngest() {
  // The streaming ingestion pipeline under its full concurrency surface:
  // N producer threads pushing per-producer balanced insert/delete streams
  // (each producer's deletes target only its own inserts, so any
  // interleaving is admissible), racing a thread that repeatedly seals
  // epochs with Barrier() and queries the sealed snapshots. TSan watches
  // the gutter admission/flush hand-off, the apply-mutex serialization,
  // and the snapshot swap; the final digest must equal the serial
  // reference regardless of every interleaving TSan provokes.
  constexpr int kProducers = 4;
  constexpr int kVertices = 48;
  constexpr int kRounds = 4;
  constexpr uint64_t kSeed = 91;
  std::vector<std::vector<EdgeUpdate>> streams;
  for (int p = 0; p < kProducers; ++p) {
    Rng rng(SubtaskSeed(kSeed, p));
    streams.push_back(RandomUpdateStream(kVertices, 4000, 0.3, rng));
  }
  AgmConnectivitySketch reference(kVertices, kRounds, kSeed);
  for (const std::vector<EdgeUpdate>& stream : streams) {
    for (const EdgeUpdate& update : stream) {
      if (update.is_delete) {
        reference.RemoveEdge(update.u, update.v);
      } else {
        reference.AddEdge(update.u, update.v);
      }
    }
  }

  StreamIngestorOptions options;
  options.num_shards = 4;
  options.gutter_capacity = 16;  // small: maximize flush hand-offs
  options.num_threads = 2;
  options.rounds = kRounds;
  options.seed = kSeed;
  StreamIngestor ingestor(kVertices, options);

  std::atomic<bool> done{false};
  std::atomic<int> push_failures{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ingestor, &streams, &push_failures, p] {
      for (const EdgeUpdate& update : streams[static_cast<size_t>(p)]) {
        if (!ingestor.Push(update).ok()) {
          push_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Concurrent epoch sealing + snapshot queries while producers run.
  std::thread query_thread([&ingestor, &done] {
    int64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto epoch = ingestor.Barrier();
      Require(epoch.ok(), "stream ingest stress: concurrent barrier");
      Require(*epoch > last_epoch,
              "stream ingest stress: epochs strictly increase");
      last_epoch = *epoch;
      const auto snapshot = ingestor.snapshot();
      Require(snapshot->epoch == last_epoch,
              "stream ingest stress: snapshot matches sealed epoch");
      Require(snapshot->components >= 1 &&
                  snapshot->components <= kVertices,
              "stream ingest stress: component count in range");
    }
  });
  for (std::thread& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  query_thread.join();

  Require(push_failures.load() == 0,
          "stream ingest stress: all balanced pushes admitted");
  const auto final_epoch = ingestor.Barrier();
  Require(final_epoch.ok(), "stream ingest stress: final barrier");
  Require(ingestor.snapshot()->digest == reference.Digest(),
          "stream ingest stress: final digest equals serial reference");
}

void StressShutdownUnderLoad() {
  // The drain-then-stop path racing live traffic — the SIGTERM story.
  //
  // StreamIngestor: producers race Shutdown()'s drain barrier. Every OK
  // Push lands in the final sealed epoch; every refusal is kUnavailable;
  // the accounting balances exactly — no silent loss in either direction.
  for (int round = 0; round < 10; ++round) {
    constexpr int kVertices = 32;
    StreamIngestorOptions options;
    options.num_shards = 4;
    options.gutter_capacity = 16;
    options.num_threads = 2;
    options.seed = 71 + static_cast<uint64_t>(round);
    StreamIngestor ingestor(kVertices, options);
    std::atomic<int64_t> accepted{0};
    std::atomic<int> bad_rejections{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        Rng rng(SubtaskSeed(options.seed, 100 + p));
        for (int i = 0; i < 3000; ++i) {
          const auto u = static_cast<VertexId>(rng.UniformInt(kVertices));
          auto v = u;
          while (v == u) {
            v = static_cast<VertexId>(rng.UniformInt(kVertices));
          }
          const Status status = ingestor.PushInsert(u, v);
          if (status.ok()) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          } else {
            if (status.code() != StatusCode::kUnavailable) {
              bad_rejections.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
      });
    }
    while (accepted.load(std::memory_order_relaxed) < 200) {
      std::this_thread::yield();
    }
    const auto final_epoch = ingestor.Shutdown();
    for (std::thread& producer : producers) producer.join();
    Require(final_epoch.ok(), "shutdown stress: ingestor drain sealed");
    Require(bad_rejections.load() == 0,
            "shutdown stress: refusals are kUnavailable only");
    Require(ingestor.snapshot()->updates_applied == accepted.load(),
            "shutdown stress: every accepted update sealed, none lost");
    Require(ingestor.PushInsert(0, 1).code() == StatusCode::kUnavailable,
            "shutdown stress: post-drain pushes refused");
  }
}


void StressClusterWorkerAdmission() {
  // ClusterWorker admission racing its SIGTERM drain: four callers execute
  // queries on both shards (and registrations) on their own threads while
  // the main thread calls RequestStop() and the drain in Serve() waits for
  // every admitted request. A tiny queue_capacity keeps shards full, so
  // admits, fast rejects and drain refusals all interleave. Every status
  // is OK, kResourceExhausted or kUnavailable; every OK answer equals a
  // single-process CutQueryService's; every OK registration is counted.
  constexpr int kVertices = 24;
  constexpr int kObjects = 4;  // ids 0..3: two per shard
  for (int round = 0; round < 4; ++round) {
    Rng rng(SubtaskSeed(91, round));
    std::vector<DirectedGraph> graphs;
    for (int g = 0; g < kObjects + 1; ++g) {  // the last is re-registered
      DirectedGraph graph(kVertices);
      for (int e = 0; e < 120; ++e) {
        const int src = static_cast<int>(rng.UniformInt(kVertices));
        int dst = static_cast<int>(rng.UniformInt(kVertices - 1));
        if (dst >= src) ++dst;
        graph.AddEdge(src, dst, 0.5 + rng.UniformDouble());
      }
      graphs.push_back(std::move(graph));
    }
    CutQueryService reference;
    for (int g = 0; g < kObjects; ++g) reference.RegisterGraph(graphs[g]);

    ClusterWorkerOptions options;
    options.num_shards = 2;
    options.queue_capacity = 1;
    auto endpoint = ParseEndpoint("tcp:127.0.0.1:0");
    Require(endpoint.ok(), "cluster stress: endpoint");
    auto created = ClusterWorker::Create(*endpoint, options);
    Require(created.ok(), "cluster stress: worker created");
    std::unique_ptr<ClusterWorker> worker = std::move(*created);
    for (int g = 0; g < kObjects; ++g) {
      const RpcRequest reg = RegisterGraphRequest(graphs[static_cast<size_t>(g)]);
      const RpcResponse response = worker->Execute(reg);
      Require(response.status.ok() && response.object_id == g,
              "cluster stress: round-robin registration ids");
    }
    Status served = OkStatus();
    std::thread server([&] { served = worker->Serve(); });

    struct Answer {
      int64_t object;
      VertexSet side;
      double value;
    };
    std::vector<std::vector<Answer>> answers(4);
    std::atomic<int64_t> ok_calls{0};
    std::atomic<int64_t> registered{0};
    std::atomic<int> bad_statuses{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
      callers.emplace_back([&, c] {
        Rng local(SubtaskSeed(92 + static_cast<uint64_t>(round), c));
        // Callers run until the drained worker refuses them.
        for (;;) {
          RpcRequest request;
          if (local.UniformInt(8) == 0) {
            request = RegisterGraphRequest(graphs[kObjects]);
          } else {
            request.kind = RpcKind::kQueryBatch;
            request.object_id = static_cast<int64_t>(local.UniformInt(kObjects));
            request.num_vertices = kVertices;
            request.sides.push_back(local.RandomBinaryString(kVertices));
          }
          const RpcResponse response = worker->Execute(request);
          const StatusCode code = response.status.code();
          if (code == StatusCode::kUnavailable) break;
          if (code == StatusCode::kResourceExhausted) continue;
          if (!response.status.ok()) {
            bad_statuses.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          ok_calls.fetch_add(1, std::memory_order_relaxed);
          if (request.kind == RpcKind::kRegisterGraph) {
            registered.fetch_add(1, std::memory_order_relaxed);
          } else if (response.values.size() == 1) {
            answers[static_cast<size_t>(c)].push_back(
                {request.object_id, request.sides[0], response.values[0]});
          } else {
            bad_statuses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    while (ok_calls.load(std::memory_order_relaxed) < 200) {
      std::this_thread::yield();
    }
    worker->RequestStop();
    server.join();
    for (std::thread& caller : callers) caller.join();

    Require(served.ok(), "cluster stress: drain completed");
    Require(bad_statuses.load() == 0,
            "cluster stress: only OK, kResourceExhausted or kUnavailable");
    Require(worker->num_registered() == kObjects + registered.load(),
            "cluster stress: every OK registration is live");
    for (const std::vector<Answer>& list : answers) {
      for (const Answer& answer : list) {
        const std::vector<double> expected =
            reference.AnswerBatch({{answer.object, answer.side}});
        Require(answer.value == expected[0],
                "cluster stress: OK answers equal the single-process "
                "service");
      }
    }
    RpcRequest late;
    late.kind = RpcKind::kQueryBatch;
    late.object_id = 0;
    late.num_vertices = kVertices;
    late.sides.push_back(VertexSet(kVertices, 1));
    Require(worker->Execute(late).status.code() == StatusCode::kUnavailable,
            "cluster stress: drained worker refuses requests");
  }
}

}  // namespace
}  // namespace dcs

int main() {
  dcs::StressParallelForReuse();
  dcs::StressBackToBackGrowingLoops();
  dcs::StressSharedGraphReads();
  dcs::StressTrialRunners();
  dcs::StressChannelParallelTransfers();
  // A tiny cache that evicts on almost every miss, then one whose index
  // doubles eight times while 24 tasks draw from four times its capacity.
  dcs::StressServeCacheConcurrency(/*capacity=*/16, /*num_sides=*/96);
  dcs::StressServeCacheConcurrency(/*capacity=*/1024, /*num_sides=*/4096);
  dcs::StressStreamIngest();
  dcs::StressShutdownUnderLoad();
  dcs::StressClusterWorkerAdmission();
  std::printf("tsan stress: OK\n");
  return 0;
}
