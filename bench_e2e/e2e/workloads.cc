#include "e2e/workloads.h"

#include <atomic>
#include <filesystem>
#include <thread>

#include "e2e/host_speed.h"
#include "serve/cut_query_service.h"

namespace dcs::e2e {
namespace {

// Folds the tallies into `result` and sets its end-to-end values.
void Report(const std::vector<Tally>& tallies, const Window& window,
            double tail_p, double rss_mb, double setup_s, RunResult& result) {
  std::vector<double> latencies_us;
  std::vector<double> work_bins(static_cast<size_t>(window.bins), 0);
  int64_t work = 0;
  for (const Tally& tally : tallies) {
    latencies_us.insert(latencies_us.end(), tally.latencies_us.begin(),
                        tally.latencies_us.end());
    for (size_t b = 0; b < tally.work_bins.size(); ++b) {
      work_bins[b] += tally.work_bins[b];
    }
    work += tally.work;
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    if (!tally.first_error.empty()) result.Violation(tally.first_error);
  }
  result.details.Set("work_units", work);
  SetEndToEnd(result, latencies_us, tail_p, window, work_bins, rss_mb,
              setup_s);
}

// A query batch kept for checking after the window.
struct Sample {
  int client = 0;
  std::vector<VertexSet> sides;
  std::vector<double> answers;
};

// Answers differing from the reference, checked on four threads.
int64_t CountWrong(const std::vector<DirectedGraph>& graphs,
                   const std::vector<Sample>& samples) {
  std::atomic<int64_t> wrong{0};
  std::atomic<size_t> next{0};
  (void)RunThreads(4, [&](int) {
    // A private copy: DirectedGraph builds its adjacency lazily, so
    // concurrent queries on one instance would race.
    const std::vector<DirectedGraph> own = graphs;
    for (size_t s = next++; s < samples.size(); s = next++) {
      const Sample& sample = samples[s];
      wrong += CountDiffering(
          sample.answers,
          ReferenceAnswers(own[static_cast<size_t>(sample.client)],
                           sample.sides));
    }
    return OkStatus();
  });
  return wrong.load();
}

void ReportWrong(int64_t wrong, RunResult& result) {
  result.details.Set("wrong_answers", wrong);
  if (wrong > 0) {
    result.Violation(std::to_string(wrong) +
                     " answers differ from the single-process "
                     "CutQueryService");
  }
}

// Times the host-speed reference kernel into result.reference_ms.
void TimeReference(RunResult& result) {
  const StatusOr<double> ms = MeasureReferenceMs();
  if (ms.ok()) {
    result.reference_ms.push_back(*ms);
  } else {
    result.problems.push_back("reference kernel: " + ms.status().ToString());
  }
}

// Answers one batch per object client `c` owns and compares each with the
// reference.
Status AnswerOwned(Cluster& cluster, const OwnedObjects& owned, int c) {
  const size_t slot = static_cast<size_t>(c);
  const std::vector<WriteObject>& objects = owned.objects[slot];
  for (size_t i = 0; i < objects.size(); ++i) {
    DCS_ASSIGN_OR_RETURN(const std::vector<double> got,
                         cluster.clients[slot]->AnswerBatch(
                             cluster.handles[slot][i], objects[i].sides));
    if (CountDiffering(got, owned.expected[slot][i]) != 0) {
      return DataLossError("object " + std::to_string(i) + " of client " +
                           std::to_string(c) +
                           " answered differently from the reference");
    }
  }
  return OkStatus();
}

}  // namespace

void Tally::Fail(const Status& status) {
  ++failed;
  if (first_error.empty()) first_error = status.ToString();
}

void Tally::Credit(const Window& window, int64_t units,
                   Clock::time_point begin, Clock::time_point end) {
  work += units;
  window.Spread(static_cast<double>(units), begin, end, work_bins);
}

Status RunThreads(int count, const std::function<Status(int)>& fn) {
  std::vector<Status> statuses(static_cast<size_t>(count));
  std::vector<std::thread> threads;
  for (int c = 0; c < count; ++c) {
    threads.emplace_back(
        [&statuses, &fn, c] { statuses[static_cast<size_t>(c)] = fn(c); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return OkStatus();
}

QueryInputs MakeQueryInputs(const QueryShape& shape, uint64_t seed) {
  QueryInputs inputs;
  for (int c = 0; c < kClients; ++c) {
    inputs.graphs.push_back(MakeGraph(shape.vertices, shape.edges,
                                      InputSeed(seed, kGraphSeed, c)));
    if (shape.pool == 0) continue;
    Rng rng(InputSeed(seed, kPoolSeed, c));
    std::vector<VertexSet> pool;
    for (int s = 0; s < shape.pool; ++s) {
      pool.push_back(RandomSide(shape.vertices, rng));
    }
    inputs.pool_answers.push_back(
        ReferenceAnswers(inputs.graphs.back(), pool));
    inputs.pools.push_back(std::move(pool));
  }
  return inputs;
}

std::vector<VertexSet> NextBatch(const QueryShape& shape,
                                 const QueryInputs& inputs, int client,
                                 Rng& rng, std::vector<int>* pool_indices) {
  std::vector<VertexSet> sides;
  sides.reserve(static_cast<size_t>(shape.batch));
  if (pool_indices != nullptr) pool_indices->clear();
  for (int q = 0; q < shape.batch; ++q) {
    if (shape.pool == 0) {
      sides.push_back(RandomSide(shape.vertices, rng));
      continue;
    }
    const int index =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(shape.pool)));
    sides.push_back(inputs.pools[static_cast<size_t>(client)]
                                [static_cast<size_t>(index)]);
    if (pool_indices != nullptr) pool_indices->push_back(index);
  }
  return sides;
}

WriteObject MakeWriteObject(uint64_t seed, int client, int64_t index) {
  const uint64_t object_seed =
      SubtaskSeed(InputSeed(seed, kWriteSeed, client), index);
  WriteObject object{MakeGraph(kWriteVertices, kWriteEdges, object_seed), {}};
  Rng rng(SubtaskSeed(object_seed, 1));
  for (int s = 0; s < kWriteSides; ++s) {
    object.sides.push_back(RandomSide(kWriteVertices, rng));
  }
  return object;
}

std::vector<double> ReferenceAnswers(const DirectedGraph& graph,
                                     const std::vector<VertexSet>& sides) {
  CutQueryServiceOptions options;
  options.enable_cache = false;
  CutQueryService service(options);
  const CutQueryService::ObjectId id = service.RegisterGraph(graph);
  std::vector<CutQueryService::Query> batch;
  batch.reserve(sides.size());
  for (const VertexSet& side : sides) batch.push_back({id, side});
  return service.AnswerBatch(batch);
}

StatusOr<std::unique_ptr<Cluster>> StartCluster(const Options& options,
                                                const std::string& dir,
                                                const std::string& store_dir,
                                                int num_clients) {
  DCS_RETURN_IF_ERROR(MakeDirs(dir));
  DCS_ASSIGN_OR_RETURN(const Endpoint endpoint,
                       ParseEndpoint("unix:" + dir + "/w.sock"));
  ClusterWorkerOptions worker_options;
  worker_options.num_shards = kWorkerShards;
  worker_options.store_dir = store_dir;
  auto cluster = std::make_unique<Cluster>();
  cluster->worker = std::make_unique<WorkerGuard>(options.server_binary,
                                                  endpoint, worker_options);
  DCS_RETURN_IF_ERROR(cluster->worker->Spawn());
  for (int c = 0; c < num_clients; ++c) {
    cluster->clients.push_back(std::make_unique<ClusterClient>(
        std::vector<Endpoint>{endpoint},
        BenchClientOptions(InputSeed(options.seed, kClientSeed, c))));
    DCS_RETURN_IF_ERROR(AwaitHealthy(*cluster->clients.back(), 10000));
  }
  cluster->handles.resize(static_cast<size_t>(num_clients));
  return cluster;
}

DirectedGraph FillerGraph(uint64_t seed) {
  return MakeGraph(kFillVertices, 64, seed);
}

std::vector<VertexSet> FillerBatch(Rng& rng) {
  std::vector<VertexSet> sides;
  for (int s = 0; s < kFillBatch; ++s) {
    sides.push_back(RandomSide(kFillVertices, rng));
  }
  return sides;
}

Status WarmUp(ClusterClient& client, ClusterClient::ObjectHandle handle,
              const QueryShape& shape, const QueryInputs& inputs,
              int client_index, uint64_t seed) {
  if (shape.pool > 0) {
    return client
        .AnswerBatch(handle, inputs.pools[static_cast<size_t>(client_index)])
        .status();
  }
  if (!shape.fill) return OkStatus();
  const uint64_t fill_seed = InputSeed(seed, kFillSeed, client_index);
  DCS_ASSIGN_OR_RETURN(const ClusterClient::ObjectHandle filler,
                       client.RegisterReplicated(FillerGraph(fill_seed)));
  Rng rng(SubtaskSeed(fill_seed, 1));
  for (int done = 0; done < kFillSides; done += kFillBatch) {
    DCS_RETURN_IF_ERROR(client.AnswerBatch(filler, FillerBatch(rng)).status());
  }
  return OkStatus();
}

OwnedObjects MakeOwnedObjects(uint64_t seed) {
  OwnedObjects owned;
  owned.objects.resize(kClients);
  owned.expected.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    const size_t slot = static_cast<size_t>(c);
    for (int i = 0; i < kRestartObjectsPerClient; ++i) {
      WriteObject object = MakeWriteObject(seed, c, i);
      owned.expected[slot].push_back(
          ReferenceAnswers(object.graph, object.sides));
      owned.objects[slot].push_back(std::move(object));
    }
  }
  return owned;
}

StatusOr<std::unique_ptr<Cluster>> StartOwnedCluster(
    const Options& options, const std::string& dir,
    const OwnedObjects& owned) {
  const std::string store = dir + "/store";
  std::error_code ignored;
  std::filesystem::remove_all(store, ignored);
  DCS_ASSIGN_OR_RETURN(auto cluster,
                       StartCluster(options, dir, store, kClients));
  DCS_RETURN_IF_ERROR(RunThreads(kClients, [&](int c) -> Status {
    const size_t slot = static_cast<size_t>(c);
    for (const WriteObject& object : owned.objects[slot]) {
      DCS_ASSIGN_OR_RETURN(
          const ClusterClient::ObjectHandle handle,
          cluster->clients[slot]->RegisterReplicated(object.graph));
      cluster->handles[slot].push_back(handle);
    }
    return AnswerOwned(*cluster, owned, c);
  }));
  DCS_RETURN_IF_ERROR(cluster->worker->Kill());
  std::vector<Recovery> recoveries;
  DCS_RETURN_IF_ERROR(Recover(*cluster, owned, nullptr, 0, 0, recoveries));
  return cluster;
}

Status Recover(Cluster& cluster, const OwnedObjects& owned, Trace* trace,
               int64_t parent, int64_t request,
               std::vector<Recovery>& recoveries) {
  const int64_t spawned = NowNs();
  DCS_RETURN_IF_ERROR(cluster.worker->Spawn());
  recoveries.assign(kClients, Recovery{});
  return RunThreads(kClients, [&](int c) -> Status {
    const size_t slot = static_cast<size_t>(c);
    ClusterClient& client = *cluster.clients[slot];
    Recovery& recovery = recoveries[slot];
    const int64_t before = client.reattached_replicas();
    DCS_RETURN_IF_ERROR(AwaitHealthy(client, 10000));
    const int64_t ready = NowNs();
    recovery.ready_ms = static_cast<double>(ready - spawned) / 1e6;
    if (trace != nullptr) {
      trace->Record({"worker.spawn_to_ready", spawned, ready, trace->NewId(),
                     parent, request});
    }
    DCS_ASSIGN_OR_RETURN(const int64_t repaired,
                         Stage(trace, "client.repair", parent, request,
                               recovery.repair_us,
                               [&] { return client.Repair(); }));
    recovery.reattached = client.reattached_replicas() - before;
    const int64_t owned_count =
        static_cast<int64_t>(owned.objects[slot].size());
    if (repaired != owned_count || recovery.reattached != owned_count) {
      return DataLossError(
          "client " + std::to_string(c) + " repaired " +
          std::to_string(repaired) + " and reattached " +
          std::to_string(recovery.reattached) + " replicas of " +
          std::to_string(owned_count) + " owned objects");
    }
    return Stage(trace, "client.first_answers", parent, request,
                 recovery.answers_us,
                 [&] { return AnswerOwned(cluster, owned, c); });
  });
}

std::vector<std::vector<EdgeUpdate>> MakeIngestStreams(
    const IngestShape& shape, uint64_t seed) {
  std::vector<std::vector<EdgeUpdate>> streams;
  for (int p = 0; p < shape.producers; ++p) {
    Rng rng(InputSeed(seed, kStreamSeed, p));
    streams.push_back(RandomUpdateStream(shape.vertices, shape.stream_length,
                                         shape.delete_fraction, rng));
  }
  return streams;
}

StreamIngestorOptions IngestOptions(const IngestShape& shape, uint64_t seed) {
  StreamIngestorOptions options;
  options.num_shards = shape.shards;
  options.gutter_capacity = shape.gutter;
  options.num_threads = 1;
  options.rounds = 0;
  options.k = 0;
  options.seed = InputSeed(seed, kSketchSeed, 0);
  return options;
}

void ApplyUpdate(AgmConnectivitySketch& sketch, const EdgeUpdate& update) {
  if (update.is_delete) {
    sketch.RemoveEdge(update.u, update.v);
  } else {
    sketch.AddEdge(update.u, update.v);
  }
}

uint64_t ReferenceDigest(const IngestShape& shape, uint64_t seed,
                         const std::vector<std::vector<EdgeUpdate>>& streams,
                         const std::vector<int64_t>& pushed) {
  const StreamIngestorOptions options = IngestOptions(shape, seed);
  const AgmConnectivitySketch empty(shape.vertices, options.rounds,
                                    options.seed);
  // The sketch is linear, so each thread applies one quarter of every
  // producer's pushes to a sketch of its own and the parts are merged.
  constexpr int kParts = 4;
  std::vector<AgmConnectivitySketch> parts(kParts, empty);
  (void)RunThreads(kParts, [&](int part) {
    for (size_t p = 0; p < streams.size(); ++p) {
      const std::vector<EdgeUpdate>& stream = streams[p];
      const int64_t begin = pushed[p] * part / kParts;
      const int64_t end = pushed[p] * (part + 1) / kParts;
      for (int64_t i = begin; i < end; ++i) {
        ApplyUpdate(parts[static_cast<size_t>(part)],
                    stream[static_cast<size_t>(i) % stream.size()]);
      }
    }
    return OkStatus();
  });
  AgmConnectivitySketch total = empty;
  for (const AgmConnectivitySketch& part : parts) total.MergeFrom(part);
  return total.Digest();
}

IngestTallies DriveIngest(StreamIngestor& ingestor, const IngestShape& shape,
                          const std::vector<std::vector<EdgeUpdate>>& streams,
                          const Window& window, Trace* trace,
                          int64_t request) {
  IngestTallies tallies;
  tallies.producers.resize(static_cast<size_t>(shape.producers));
  std::atomic<int> producing{shape.producers};
  std::thread sealer([&] {
    Tally& tally = tallies.sealer;
    int64_t mark = shape.seal_every;
    while (true) {
      const bool last = producing.load() == 0;
      if (!last && ingestor.updates_accepted() < mark) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      double barrier_us = 0;
      const auto begun = Clock::now();
      const StatusOr<int64_t> epoch =
          Stage(trace, "ingest.barrier", 0, request, barrier_us,
                [&] { return ingestor.Barrier(); });
      const auto sealed = Clock::now();
      ++tally.attempted;
      if (epoch.ok()) {
        tally.latencies_us.push_back(MicrosBetween(begun, sealed));
      } else {
        tally.Fail(epoch.status());
      }
      if (last) break;
      mark = (ingestor.updates_accepted() / shape.seal_every + 1) *
             shape.seal_every;
    }
  });
  // Reading the clock once per chunk keeps it out of the untraced push
  // cost; traced, every Push is timed as well.
  constexpr int kChunk = 256;
  (void)RunThreads(shape.producers, [&](int p) {
    Tally& tally = tallies.producers[static_cast<size_t>(p)];
    const std::vector<EdgeUpdate>& stream = streams[static_cast<size_t>(p)];
    const int64_t start_ns = NowNs();
    size_t next = 0;
    auto chunk_start = window.start;
    for (int64_t chunk = 0;; chunk = kChunk) {
      const auto now = Clock::now();
      tally.Credit(window, chunk, chunk_start, now);
      chunk_start = now;
      if (now >= window.deadline || Interrupted()) break;
      for (int i = 0; i < kChunk; ++i) {
        const int64_t before = trace != nullptr ? NowNs() : 0;
        const Status pushed = ingestor.Push(stream[next]);
        if (trace != nullptr) {
          tally.latencies_us.push_back(
              static_cast<double>(NowNs() - before) / 1e3);
        }
        ++tally.attempted;
        if (!pushed.ok()) tally.Fail(pushed);
        if (++next == stream.size()) next = 0;
      }
    }
    if (trace != nullptr) {
      trace->Record(
          {"ingest.producer", start_ns, NowNs(), trace->NewId(), 0, request});
    }
    producing.fetch_sub(1);
    return OkStatus();
  });
  sealer.join();
  return tallies;
}

RunResult RunQuery(const Options& options, const QueryShape& shape,
                   const std::string& dir) {
  RunResult result;
  const QueryInputs inputs = MakeQueryInputs(shape, options.seed);
  double setup_s = 0;
  auto set_up = SetUpRepeatedly(
      &setup_s, [&]() -> StatusOr<std::unique_ptr<Cluster>> {
        DCS_ASSIGN_OR_RETURN(auto cluster,
                             StartCluster(options, dir, "", kClients));
        // Registered in client order, so client c's graph lands on shard c.
        for (int c = 0; c < kClients; ++c) {
          DCS_ASSIGN_OR_RETURN(
              const ClusterClient::ObjectHandle handle,
              cluster->clients[static_cast<size_t>(c)]->RegisterReplicated(
                  inputs.graphs[static_cast<size_t>(c)]));
          cluster->handles[static_cast<size_t>(c)].push_back(handle);
        }
        DCS_RETURN_IF_ERROR(RunThreads(kClients, [&](int c) -> Status {
          const size_t slot = static_cast<size_t>(c);
          return WarmUp(*cluster->clients[slot], cluster->handles[slot][0],
                        shape, inputs, c, options.seed);
        }));
        return cluster;
      });
  if (!set_up.ok()) {
    result.Violation("set-up: " + set_up.status().ToString());
    return result;
  }
  Cluster& cluster = **set_up;

  std::vector<Tally> tallies(kClients);
  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<int64_t> wrong(kClients, 0);
  TimeReference(result);
  const Window window = Window::Open(options.seconds);
  (void)RunThreads(kClients, [&](int c) {
    const size_t slot = static_cast<size_t>(c);
    Tally& tally = tallies[slot];
    ClusterClient& client = *cluster.clients[slot];
    const ClusterClient::ObjectHandle handle = cluster.handles[slot][0];
    Rng rng(InputSeed(options.seed, kBatchSeed, c));
    // Fresh sides are checked on a seeded 1-in-8 sample after the window:
    // their reference is the workload's own oracle work.
    Rng sample_rng(InputSeed(options.seed, kSampleSeed, c));
    std::vector<int> indices;
    while (Clock::now() < window.deadline && !Interrupted()) {
      std::vector<VertexSet> sides =
          NextBatch(shape, inputs, c, rng, &indices);
      const auto sent = Clock::now();
      StatusOr<std::vector<double>> answers =
          client.AnswerBatch(handle, sides);
      const auto answered = Clock::now();
      ++tally.attempted;
      if (!answers.ok()) {
        tally.Fail(answers.status());
        continue;
      }
      tally.latencies_us.push_back(MicrosBetween(sent, answered));
      tally.Credit(window, static_cast<int64_t>(sides.size()), sent, answered);
      if (shape.pool > 0) {
        std::vector<double> expected;
        for (const int index : indices) {
          expected.push_back(
              inputs.pool_answers[slot][static_cast<size_t>(index)]);
        }
        wrong[slot] += CountDiffering(*answers, expected);
      } else if (sample_rng.UniformInt(8) == 0) {
        samples[slot].push_back({c, std::move(sides), std::move(*answers)});
      }
    }
    return OkStatus();
  });
  TimeReference(result);
  const double rss_mb = cluster.worker->PeakRssMb();
  set_up = UnavailableError("torn down");  // free the cores for checking

  std::vector<Sample> all_samples;
  for (std::vector<Sample>& client_samples : samples) {
    for (Sample& sample : client_samples) {
      all_samples.push_back(std::move(sample));
    }
  }
  int64_t wrong_total = wrong[0] + wrong[1];
  wrong_total += CountWrong(inputs.graphs, all_samples);
  int64_t batches = 0;
  for (const Tally& tally : tallies) {
    batches += static_cast<int64_t>(tally.latencies_us.size());
  }
  result.details.Set("checked_batches", shape.pool > 0
                                            ? batches
                                            : static_cast<int64_t>(
                                                  all_samples.size()));
  ReportWrong(wrong_total, result);
  Report(tallies, window, 99, rss_mb, setup_s, result);
  return result;
}

RunResult RunRegister(const Options& options, const std::string& dir) {
  RunResult result;
  const std::string store = dir + "/store";
  double setup_s = 0;
  auto set_up = SetUpRepeatedly(
      &setup_s, [&]() -> StatusOr<std::unique_ptr<Cluster>> {
        std::error_code ignored;
        std::filesystem::remove_all(store, ignored);
        return StartCluster(options, dir, store, kClients);
      });
  if (!set_up.ok()) {
    result.Violation("set-up: " + set_up.status().ToString());
    return result;
  }
  Cluster& cluster = **set_up;

  std::vector<Tally> tallies(kClients);
  // answers[c][i]: the batch over client c's i-th object (empty = failed).
  std::vector<std::vector<std::vector<double>>> answers(kClients);
  std::atomic<int64_t> registered{0};
  std::atomic<double> rss_mb{0};
  TimeReference(result);
  const Window window = Window::Open(options.seconds);
  (void)RunThreads(kClients, [&](int c) {
    const size_t slot = static_cast<size_t>(c);
    Tally& tally = tallies[slot];
    ClusterClient& client = *cluster.clients[slot];
    for (int64_t i = 0; Clock::now() < window.deadline && !Interrupted();
         ++i) {
      const WriteObject object = MakeWriteObject(options.seed, c, i);
      answers[slot].emplace_back();
      const auto sent = Clock::now();
      auto handle = client.RegisterReplicated(object.graph);
      const auto registered_at = Clock::now();
      ++tally.attempted;
      if (!handle.ok()) {
        tally.Fail(handle.status());
        continue;
      }
      tally.latencies_us.push_back(MicrosBetween(sent, registered_at));
      tally.Credit(window, 1, sent, registered_at);
      if (registered.fetch_add(1) + 1 == kRssAtRegistrations) {
        rss_mb = cluster.worker->PeakRssMb();
      }
      ++tally.attempted;
      auto batch = client.AnswerBatch(*handle, object.sides);
      if (!batch.ok()) {
        tally.Fail(batch.status());
        continue;
      }
      answers[slot].back() = std::move(*batch);
    }
    return OkStatus();
  });
  TimeReference(result);
  if (rss_mb.load() == 0) {
    rss_mb = cluster.worker->PeakRssMb();
    result.details.Set("rss_note", "read at window end: fewer than " +
                                       std::to_string(kRssAtRegistrations) +
                                       " registrations");
  }
  set_up = UnavailableError("torn down");

  std::atomic<int64_t> wrong{0};
  (void)RunThreads(kClients, [&](int c) {
    const std::vector<std::vector<double>>& got =
        answers[static_cast<size_t>(c)];
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].empty()) continue;  // counted as failed
      const WriteObject object =
          MakeWriteObject(options.seed, c, static_cast<int64_t>(i));
      wrong += CountDiffering(got[i],
                              ReferenceAnswers(object.graph, object.sides));
    }
    return OkStatus();
  });
  ReportWrong(wrong.load(), result);
  result.details.Set("store_objects", registered.load());
  Report(tallies, window, 90, rss_mb.load(), setup_s, result);
  return result;
}

RunResult RunRestart(const Options& options, const std::string& dir) {
  RunResult result;
  const OwnedObjects owned = MakeOwnedObjects(options.seed);
  double setup_s = 0;
  auto set_up = SetUpRepeatedly(&setup_s, [&] {
    return StartOwnedCluster(options, dir, owned);
  });
  if (!set_up.ok()) {
    result.Violation("set-up: " + set_up.status().ToString());
    return result;
  }
  Cluster& cluster = **set_up;

  Tally tally;
  std::vector<Recovery> recoveries;
  TimeReference(result);
  const Window window = Window::Open(options.seconds);
  while (Clock::now() < window.deadline && !Interrupted()) {
    ++tally.attempted;
    const auto killed = Clock::now();
    Status restarted = cluster.worker->Kill();
    if (restarted.ok()) {
      restarted = Recover(cluster, owned, nullptr, 0, 0, recoveries);
    }
    const auto recovered = Clock::now();
    if (!restarted.ok()) {
      tally.Fail(restarted);
      break;  // the cluster is in an unknown state
    }
    tally.latencies_us.push_back(MicrosBetween(killed, recovered));
    tally.Credit(window, kClients * kRestartObjectsPerClient, killed,
                 recovered);
  }
  TimeReference(result);
  const double rss_mb = cluster.worker->PeakRssMb();
  set_up = UnavailableError("torn down");

  result.details.Set("store_objects",
                     int64_t{kClients * kRestartObjectsPerClient});
  Report({tally}, window, 90, rss_mb, setup_s, result);
  return result;
}

RunResult RunIngest(const Options& options) {
  RunResult result;
  const IngestShape& shape = kIngest;
  const std::vector<std::vector<EdgeUpdate>> streams =
      MakeIngestStreams(shape, options.seed);
  // The ingestor lives in this process beside the inputs, so its memory is
  // this process's resident growth from here to the end of the window.
  const double resident_before_mb = ProcStatusMb("self", "VmRSS");
  double setup_s = 0;
  auto set_up = SetUpRepeatedly(
      &setup_s, [&]() -> StatusOr<std::unique_ptr<StreamIngestor>> {
        return std::make_unique<StreamIngestor>(
            shape.vertices, IngestOptions(shape, options.seed));
      });
  if (!set_up.ok()) {
    result.Violation("set-up: " + set_up.status().ToString());
    return result;
  }
  StreamIngestor& ingestor = **set_up;

  TimeReference(result);
  const Window window = Window::Open(options.seconds);
  IngestTallies tallies =
      DriveIngest(ingestor, shape, streams, window, nullptr, 0);
  TimeReference(result);
  const double rss_mb =
      ProcStatusMb("self", "VmRSS") - resident_before_mb;

  std::vector<int64_t> pushed;
  for (const Tally& tally : tallies.producers) pushed.push_back(tally.work);
  const uint64_t digest = ingestor.snapshot()->digest;
  set_up = UnavailableError("torn down");
  const uint64_t expected =
      ReferenceDigest(shape, options.seed, streams, pushed);
  result.details.Set("digest_matches_serial_reference", digest == expected);
  if (digest != expected) {
    result.Violation("sealed digest differs from the serial reference");
  }
  // Throughput counts updates; the sealer's tally carries the seal
  // latencies and no work.
  std::vector<Tally> all = std::move(tallies.producers);
  all.push_back(std::move(tallies.sealer));
  Report(all, window, 90, rss_mb, setup_s, result);
  return result;
}

}  // namespace dcs::e2e
