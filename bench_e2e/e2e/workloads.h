// bench_e2e's timed workloads, and the routines and seeded inputs they
// share with the traced replays (layers.h). README.md gives each
// workload's reason.
//
// Every workload is a closed loop: a ClusterClient is synchronous and one
// per thread, so each caller waits for its reply, and with two connections
// no queue can build — the worker's admission control (queue depth 64) is
// never exercised. Each run sets its system up kSetUps times (setup_s is
// the median), times the last set-up for Options::seconds, checks its
// answers against a single-process reference, and sets the raw end-to-end
// values of harness.h's SetEndToEnd.
//
// The routines that both paths run (DriveIngest, Recover, RunQuery) take a
// Trace*: null times nothing but the workload's own operation.

#ifndef DCS_BENCH_E2E_WORKLOADS_H_
#define DCS_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "e2e/harness.h"
#include "e2e/trace.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "stream/ingest.h"

namespace dcs::e2e {

inline constexpr int kClients = 2;       // client threads = connections
inline constexpr int kWorkerShards = 2;  // CutQueryService shards per worker

// query_hot and query_cold: one graph per client (so one per shard), a
// batch of sides per call.
struct QueryShape {
  int vertices = 0;
  int edges = 0;
  int batch = 0;  // sides per AnswerBatch
  int pool = 0;   // > 0: sides drawn from a fixed pool per graph; 0: fresh
  bool fill = false;  // fill every shard's LRU with misses before timing
};
inline constexpr QueryShape kQueryHot{64, 512, 8, 64, false};
inline constexpr QueryShape kQueryCold{256, 8192, 32, 0, true};
// Distinct misses per shard before query_cold's window: 1.25 x the
// per-shard cache capacity (CutQueryServiceOptions::cache_capacity), so
// every stripe of the LRU is full and evicting when timing starts. They
// go to a small filler graph: 32-vertex sides cost an eighth of the wire
// bytes of 256-vertex ones, which keeps the fill to a fraction of a second.
inline constexpr int kFillSides = 5 << 14;
inline constexpr int kFillBatch = 1024;
inline constexpr int kFillVertices = 32;

// register and restart: fresh graphs of this size, each checked with one
// batch of kWriteSides sides.
inline constexpr int kWriteVertices = 128;
inline constexpr int kWriteEdges = 2048;
inline constexpr int kWriteSides = 8;
inline constexpr int kRestartObjectsPerClient = 16;
// register reads the worker's VmHWM after this many registrations, so the
// memory metric does not grow with throughput.
inline constexpr int kRssAtRegistrations = 128;

// ingest: the `dcs stream` defaults (n = 512, 4 shards, gutter 256, k = 0).
struct IngestShape {
  int vertices = 512;
  int shards = 4;
  int gutter = 256;
  int producers = 2;
  // Each producer's own stream; 20% of the updates delete the producer's
  // own earlier inserts, so every interleaving is admissible. A 10-second
  // window pushed 3.2-4.9 M updates per producer in calibration, so 2^22
  // would run out in the fastest runs; at 2^23 only a producer 1.7x as
  // fast as the fastest seen wraps around and re-pushes its stream.
  int64_t stream_length = int64_t{1} << 23;
  double delete_fraction = 0.2;
  int64_t seal_every = int64_t{1} << 17;  // updates between Barrier() calls
};
inline constexpr IngestShape kIngest{};

// Every input is drawn from SubtaskSeed(seed, tag + index), one tag per
// kind of input, so no two inputs share a random stream.
enum SeedTag : int64_t {
  kGraphSeed = 10,
  kPoolSeed = 20,
  kBatchSeed = 30,
  kSampleSeed = 40,
  kFillSeed = 50,
  kWriteSeed = 60,
  kStreamSeed = 70,
  kSketchSeed = 80,
  kClientSeed = 90,
};
inline uint64_t InputSeed(uint64_t seed, SeedTag tag, int64_t index) {
  return SubtaskSeed(seed, tag + index);
}

// Runs fn(0), ..., fn(count - 1) on one thread each, joins them, and
// returns the first error.
Status RunThreads(int count, const std::function<Status(int)>& fn);

// What one thread of a timed window saw.
struct Tally {
  std::vector<double> latencies_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t work = 0;
  std::vector<double> work_bins;  // work completed in each window bin
  std::string first_error;

  void Fail(const Status& status);
  // Counts `units` of work done over [begin, end).
  void Credit(const Window& window, int64_t units, Clock::time_point begin,
              Clock::time_point end);
};

// The seeded inputs of the query workloads.
struct QueryInputs {
  std::vector<DirectedGraph> graphs;              // one per client
  std::vector<std::vector<VertexSet>> pools;      // hot: sides per graph
  std::vector<std::vector<double>> pool_answers;  // hot: reference answers
};
QueryInputs MakeQueryInputs(const QueryShape& shape, uint64_t seed);

// The next batch for one client: `batch` sides drawn from the client's
// pool, or fresh ones.
std::vector<VertexSet> NextBatch(const QueryShape& shape,
                                 const QueryInputs& inputs, int client,
                                 Rng& rng, std::vector<int>* pool_indices);

// Object `index` of a write client: its graph and its side batch.
struct WriteObject {
  DirectedGraph graph;
  std::vector<VertexSet> sides;
};
WriteObject MakeWriteObject(uint64_t seed, int client, int64_t index);

// Answers from a single-process CutQueryService with no cache — the
// reference every served answer is compared with, bit for bit.
std::vector<double> ReferenceAnswers(const DirectedGraph& graph,
                                     const std::vector<VertexSet>& sides);

// A dcs_server worker and one client per client thread.
struct Cluster {
  std::unique_ptr<WorkerGuard> worker;
  std::vector<std::unique_ptr<ClusterClient>> clients;
  std::vector<std::vector<ClusterClient::ObjectHandle>> handles;
};
// Spawns a worker listening in `dir` (store-backed in `store_dir` unless
// empty) and connects `num_clients` clients.
StatusOr<std::unique_ptr<Cluster>> StartCluster(const Options& options,
                                                const std::string& dir,
                                                const std::string& store_dir,
                                                int num_clients);

// query_cold's filler: a small graph and, per call, kFillBatch fresh sides.
DirectedGraph FillerGraph(uint64_t seed);
std::vector<VertexSet> FillerBatch(Rng& rng);

// Brings the shard holding client `client`'s graph (`handle`) to the
// workload's steady state before timing: query_cold registers a filler
// graph and answers kFillSides fresh sides on it, leaving the shard's LRU
// full; query_hot answers its pool once.
Status WarmUp(ClusterClient& client, ClusterClient::ObjectHandle handle,
              const QueryShape& shape, const QueryInputs& inputs,
              int client_index, uint64_t seed);

// The restart workload's objects: kRestartObjectsPerClient write objects
// per client and their reference answers.
struct OwnedObjects {
  std::vector<std::vector<WriteObject>> objects;           // [client][i]
  std::vector<std::vector<std::vector<double>>> expected;  // [client][i]
};
OwnedObjects MakeOwnedObjects(uint64_t seed);

// A store-backed cluster in `dir` holding every owned object, each
// answered once, and warmed by one untimed restart (a client computes each
// object's envelope checksum at its first reattach).
StatusOr<std::unique_ptr<Cluster>> StartOwnedCluster(
    const Options& options, const std::string& dir,
    const OwnedObjects& owned);

// What one client saw of a restart.
struct Recovery {
  double ready_ms = 0;  // respawn -> first answered ping
  double repair_us = 0;
  double answers_us = 0;
  int64_t reattached = 0;
};
// Respawns the cluster's killed worker on its store; each client then
// pings until it answers, Repair()s — every object it owns must reattach —
// and answers one batch per object, bit for bit against the reference:
// the restart as a client sees it. Traced, the stages are spans under
// `parent`, and `recoveries` (one per client) gets their times.
Status Recover(Cluster& cluster, const OwnedObjects& owned, Trace* trace,
               int64_t parent, int64_t request,
               std::vector<Recovery>& recoveries);

// The per-producer update streams of an ingest run.
std::vector<std::vector<EdgeUpdate>> MakeIngestStreams(
    const IngestShape& shape, uint64_t seed);
StreamIngestorOptions IngestOptions(const IngestShape& shape, uint64_t seed);
void ApplyUpdate(AgmConnectivitySketch& sketch, const EdgeUpdate& update);
// Digest of a plain AgmConnectivitySketch, built without the ingestor,
// that applied for each producer p the first pushed[p] updates of its
// stream (wrapping around); four threads build parts of it and merge them,
// which by linearity equals one serial sketch.
uint64_t ReferenceDigest(const IngestShape& shape, uint64_t seed,
                         const std::vector<std::vector<EdgeUpdate>>& streams,
                         const std::vector<int64_t>& pushed);

// What an ingest pass saw: one tally per producer (work = updates pushed;
// traced, latencies_us = every Push) and the sealer's (latencies_us =
// every Barrier, no work).
struct IngestTallies {
  std::vector<Tally> producers;
  Tally sealer;
};
// One thread per producer pushes its stream into `ingestor` until the
// window closes, while a sealer thread calls Barrier() each time
// updates_accepted() crosses a multiple of seal_every, and once more after
// the producers stop. Traced, every Push is timed and every Barrier and
// producer is a span.
IngestTallies DriveIngest(StreamIngestor& ingestor, const IngestShape& shape,
                          const std::vector<std::vector<EdgeUpdate>>& streams,
                          const Window& window, Trace* trace, int64_t request);

RunResult RunQuery(const Options& options, const QueryShape& shape,
                   const std::string& dir);
RunResult RunRegister(const Options& options, const std::string& dir);
RunResult RunRestart(const Options& options, const std::string& dir);
RunResult RunIngest(const Options& options);

}  // namespace dcs::e2e

#endif  // DCS_BENCH_E2E_WORKLOADS_H_
