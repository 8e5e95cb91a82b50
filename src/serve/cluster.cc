#include "serve/cluster.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "sketch/serialization.h"
#include "store/cache_snapshot.h"
#include "util/bitio.h"
#include "util/checksum.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

// How long an idle accept or connection wait parks before it times out and
// loops. A stop does not wait for it: RequestStop wakes both waits through
// the wake eventfd.
constexpr int kStopPollMs = 100;

// Set in Shard::in_flight once drain starts: far above any admissible
// count, so one compare both refuses new requests and leaves the count of
// admitted ones readable below it.
constexpr int kDraining = 1 << 30;

// The worker's instance token: distinct across respawns (monotonic clock
// advances; pids differ), never zero (zero means "unknown" client-side).
uint64_t DrawInstanceToken() {
  const uint64_t ticks = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const uint64_t token =
      ticks ^ (static_cast<uint64_t>(::getpid()) << 40);
  return token == 0 ? 1 : token;
}

// Why a worker will not index `graph`, or OK (ClusterWorker::kMaxVertices).
Status CheckIndexable(const DirectedGraph& graph) {
  if (graph.num_vertices() <= ClusterWorker::kMaxVertices) return OkStatus();
  return InvalidArgumentError(
      "graph has " + std::to_string(graph.num_vertices()) +
      " vertices; a worker registers at most " +
      std::to_string(ClusterWorker::kMaxVertices));
}

// One warm-load record at ascending position `position`: its graph, with
// its CSR adjacency already built (registration's ExactCutOracle would
// otherwise build it, one graph after another), and its reattach checksum
// (the client's GraphEnvelopeChecksum), or why the store cannot be booted
// from.
Status DecodeWarmRecord(int64_t position, const SegmentRecord& record,
                        std::optional<DirectedGraph>& graph,
                        uint32_t& checksum) {
  const int64_t id = record.object_id;
  if (id != position) {
    return DataLossError(
        "store object ids are not contiguous from 0 (found id " +
        std::to_string(id) + " at position " + std::to_string(position) +
        "); refusing to warm-load with a broken id assignment");
  }
  if (record.kind != StreamKind::kDirectedGraph) {
    return DataLossError("store object " + std::to_string(id) + " is a " +
                         StreamKindName(record.kind) +
                         ", not a directed graph");
  }
  BitReader reader(record.payload);
  DCS_ASSIGN_OR_RETURN(graph, DeserializeDirectedGraph(reader));
  DCS_RETURN_IF_ERROR(CheckIndexable(*graph));
  graph->BuildAdjacency();
  checksum = Crc32c(record.payload);
  return OkStatus();
}

}  // namespace

void ClusterWorkerOptions::Check() const {
  DCS_CHECK_GE(num_shards, 1);
  DCS_CHECK_GE(queue_capacity, 1);
  DCS_CHECK_GE(io_timeout_ms, 1);
  DCS_CHECK_GE(execution_delay_ms, 0);
  DCS_CHECK_GE(warm_cache_entries, 0);
}

ClusterWorker::ClusterWorker(Listener listener, ClusterWorkerOptions options,
                             int wake_fd)
    : options_(options),
      listener_(std::move(listener)),
      token_(DrawInstanceToken()),
      wake_fd_(wake_fd) {
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    // The admitted caller executes, one at a time under the shard mutex.
    shard->service = std::make_unique<CutQueryService>();
    shards_.push_back(std::move(shard));
  }
}

StatusOr<std::unique_ptr<ClusterWorker>> ClusterWorker::Create(
    const Endpoint& endpoint, ClusterWorkerOptions options) {
  options.Check();
  DCS_ASSIGN_OR_RETURN(Listener listener, Listener::Listen(endpoint));
  const int wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd < 0) {
    return UnavailableError(std::string("eventfd failed: ") +
                            std::strerror(errno));
  }
  std::unique_ptr<ClusterWorker> worker(
      new ClusterWorker(std::move(listener), options, wake_fd));
  if (!options.store_dir.empty()) {
    std::vector<SegmentRecord> records;
    DCS_ASSIGN_OR_RETURN(worker->store_,
                         SketchStore::Open(options.store_dir, &records));
    DCS_RETURN_IF_ERROR(worker->WarmLoadFromStore(std::move(records)));
  }
  return worker;
}

Status ClusterWorker::WarmLoadFromStore(std::vector<SegmentRecord> records) {
  // Open handed over each object's newest record in ascending global id,
  // already verified (header CRC, payload envelope), so boot reads nothing
  // twice. Records deserialize, index and take their reattach checksums
  // independently on one thread per core (boot has the machine to itself;
  // the shard count says nothing about it); each frees its payload once
  // done, so the bytes never all sit beside the graphs built from them. A
  // refusal names the lowest failing position, whatever the schedule.
  const int64_t count = static_cast<int64_t>(records.size());
  std::vector<std::optional<DirectedGraph>> graphs(records.size());
  std::vector<uint32_t> checksums(records.size());
  std::vector<Status> loaded(records.size());
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ParallelFor(threads, count, [&](int64_t i) {
    const size_t slot = static_cast<size_t>(i);
    loaded[slot] = DecodeWarmRecord(i, records[slot], graphs[slot],
                                    checksums[slot]);
    std::vector<uint8_t>().swap(records[slot].payload);
  });
  // Register in ascending global id. Round-robin registration makes the
  // global id equal to the registration counter, so an ascending replay
  // reproduces every assignment: id k lands on shard k % S at local index
  // k / S — exactly where a query for id k routes.
  const int64_t num_shards = static_cast<int64_t>(shards_.size());
  for (int64_t id = 0; id < count; ++id) {
    const size_t slot = static_cast<size_t>(id);
    DCS_RETURN_IF_ERROR(loaded[slot]);
    Shard& shard = *shards_[static_cast<size_t>(id % num_shards)];
    shard.graphs.push_back(std::move(*graphs[slot]));
    shard.checksums.push_back(checksums[slot]);
    const CutQueryService::ObjectId local =
        shard.service->RegisterGraph(shard.graphs.back());
    DCS_CHECK_EQ(local, id / num_shards);
    ++warm_loaded_objects_;
    DCS_METRIC_INC("serve.cluster.objects_warm_loaded");
  }
  registrations_ = count;
  // The previous incarnation's drained cache, if any. A snapshot is an
  // optimization: unreadable or stale files mean a cold cache, not a
  // failed boot.
  auto snapshot = ReadCacheSnapshotFile(store_->dir() + "/cache.snap");
  if (snapshot.ok()) {
    std::vector<std::vector<CutQueryCache::SnapshotEntry>> per_shard(
        shards_.size());
    for (const CacheSnapshotEntry& entry : *snapshot) {
      if (entry.object < 0 ||
          entry.object >= count) {
        continue;  // an object the store no longer holds
      }
      CutQueryCache::SnapshotEntry local;
      local.object = entry.object / num_shards;
      local.side.words = entry.side_words;
      local.value = entry.value;
      per_shard[static_cast<size_t>(entry.object % num_shards)]
          .push_back(std::move(local));
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->service->RestoreCache(per_shard[s]);
    }
  } else if (snapshot.status().code() == StatusCode::kDataLoss) {
    DCS_METRIC_INC("serve.cluster.cache_snapshot_rejected");
  }
  return OkStatus();
}

Status ClusterWorker::PersistOnDrain() {
  if (store_ == nullptr) return OkStatus();
  if (options_.warm_cache_entries > 0) {
    const int64_t num_shards = static_cast<int64_t>(shards_.size());
    // Split the entry budget across shards so every shard's hottest
    // entries survive, whichever shard is busiest.
    const int64_t per_shard_budget =
        std::max<int64_t>(1, options_.warm_cache_entries / num_shards);
    std::vector<CacheSnapshotEntry> merged;
    for (int64_t s = 0; s < num_shards; ++s) {
      const auto entries =
          shards_[static_cast<size_t>(s)]->service->SnapshotCache(
              per_shard_budget);
      for (const CutQueryCache::SnapshotEntry& entry : entries) {
        CacheSnapshotEntry global;
        global.object = entry.object * num_shards + s;
        global.side_words = entry.side.words;
        global.value = entry.value;
        merged.push_back(std::move(global));
      }
    }
    // Best-effort: a failed snapshot write costs warmth, not correctness.
    if (!WriteCacheSnapshotFile(store_->dir() + "/cache.snap", merged)
             .ok()) {
      DCS_METRIC_INC("serve.cluster.cache_snapshot_write_failed");
    }
  }
  // The segment seal is NOT best-effort: a drain that cannot make its
  // registrations durable must say so.
  return store_->Seal();
}

ClusterWorker::~ClusterWorker() {
  RequestStop();
  listener_.Close();
  DrainShards();
  JoinConnections(/*finished_only=*/false);
  ::close(wake_fd_);  // no thread waits on it any more
}

void ClusterWorker::RequestStop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  // The eventfd stays readable from here on (nothing reads it), so every
  // wait that polls it, now or later, returns at once. write(2) is
  // async-signal-safe; errno is kept for the code the signal interrupted.
  const int saved_errno = errno;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t wrote = ::write(wake_fd_, &one, sizeof(one));
  errno = saved_errno;
}

Status ClusterWorker::Admit(Shard& shard) {
  int count = shard.in_flight.load();
  do {
    if (count >= kDraining) return UnavailableError("worker draining");
    // One executing plus queue_capacity waiting: the executing request
    // does not count against the capacity.
    if (count > options_.queue_capacity) {
      DCS_METRIC_INC("serve.cluster.queue_rejected");
      return ResourceExhaustedError(
          "shard queue full (" + std::to_string(options_.queue_capacity) +
          " requests in flight); retry after backoff");
    }
  } while (!shard.in_flight.compare_exchange_weak(count, count + 1));
  return OkStatus();
}

void ClusterWorker::Release(Shard& shard) {
  if (shard.in_flight.fetch_sub(1) - 1 == kDraining) {
    shard.in_flight.notify_all();
  }
}

void ClusterWorker::DrainShards() {
  for (auto& shard : shards_) shard->in_flight.fetch_or(kDraining);
  for (auto& shard : shards_) {
    for (int count = shard->in_flight.load(); count != kDraining;
         count = shard->in_flight.load()) {
      shard->in_flight.wait(count);
    }
  }
}

RpcResponse ClusterWorker::ExecuteOnShard(Shard& shard,
                                          const RpcRequest& request) {
  RpcResponse response;
  response.server_token = token_;
  if (options_.execution_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.execution_delay_ms));
  }
  const int num_shards = static_cast<int>(shards_.size());
  switch (request.kind) {
    case RpcKind::kRegisterGraph: {
      // The request carries the graph's envelope: the bytes the client
      // serialized, verified on decode, and their checksum.
      const EnvelopedGraph& enveloped = *request.graph;
      const int64_t global_id =
          shard.service->num_objects() * num_shards + shard.index;
      if (store_ != nullptr) {
        // Persist before registering: an object is only queryable once
        // its bytes are in the segment, so a respawned worker can always
        // warm-load everything it ever acknowledged.
        const Status put = store_->Put(global_id,
                                       StreamKind::kDirectedGraph,
                                       enveloped.bytes(),
                                       enveloped.bit_count());
        if (!put.ok()) {
          response.status = put;
          break;
        }
      }
      shard.graphs.push_back(enveloped.graph());
      // The client's GraphEnvelopeChecksum: serialization is canonical.
      shard.checksums.push_back(enveloped.checksum());
      const CutQueryService::ObjectId local =
          shard.service->RegisterGraph(shard.graphs.back());
      response.object_id = local * num_shards + shard.index;
      response.status = OkStatus();
      DCS_METRIC_INC("serve.cluster.objects_registered");
      break;
    }
    case RpcKind::kQueryBatch: {
      const int64_t local = request.object_id / num_shards;
      if (local >= shard.service->num_objects()) {
        response.status = NotFoundError(
            "object " + std::to_string(request.object_id) +
            " is not registered on this worker (it may have restarted)");
        break;
      }
      const DirectedGraph& graph = shard.graphs[static_cast<size_t>(local)];
      if (request.num_vertices != graph.num_vertices()) {
        response.status = InvalidArgumentError(
            "query batch sides have " +
            std::to_string(request.num_vertices) + " vertices; object has " +
            std::to_string(graph.num_vertices()));
        break;
      }
      std::vector<CutQueryService::Query> batch;
      batch.reserve(request.sides.size());
      for (const VertexSet& side : request.sides) {
        batch.push_back(CutQueryService::Query{local, side});
      }
      response.values = shard.service->AnswerBatch(batch);
      response.status = OkStatus();
      break;
    }
    case RpcKind::kReattach: {
      // The client's fast repair path: claim an object this incarnation
      // warm-loaded from the previous one's store. Anything short of an
      // exact identity match (id live, vertex count, envelope checksum)
      // is kNotFound, and the client falls back to a full re-register.
      const int64_t local = request.object_id / num_shards;
      if (local >= shard.service->num_objects()) {
        response.status = NotFoundError(
            "object " + std::to_string(request.object_id) +
            " is not on this worker; reattach requires a warm store");
        break;
      }
      const DirectedGraph& graph = shard.graphs[static_cast<size_t>(local)];
      const uint32_t checksum = shard.checksums[static_cast<size_t>(local)];
      if (request.num_vertices != graph.num_vertices() ||
          request.graph_checksum != checksum) {
        response.status = NotFoundError(
            "object " + std::to_string(request.object_id) +
            " on this worker is not the client's object "
            "(checksum or shape mismatch)");
        break;
      }
      response.object_id = request.object_id;
      response.status = OkStatus();
      DCS_METRIC_INC("serve.cluster.objects_reattached");
      break;
    }
    case RpcKind::kPing:
    case RpcKind::kResponse:
      response.status = InternalError("request kind cannot reach a shard");
      break;
  }
  return response;
}

RpcResponse ClusterWorker::Execute(const RpcRequest& request) {
  RpcResponse response;
  response.server_token = token_;
  if (request.kind == RpcKind::kPing) {
    response.status = OkStatus();  // answered inline: health checks must
    return response;               // succeed even when every shard is full
  }
  Shard* shard = nullptr;
  if (request.kind == RpcKind::kRegisterGraph) {
    if (!request.graph.has_value()) {
      response.status =
          InvalidArgumentError("register request has no graph envelope");
      return response;
    }
    // Refused before it takes a round-robin slot or reaches the store.
    const Status indexable = CheckIndexable(request.graph->graph());
    if (!indexable.ok()) {
      response.status = indexable;
      return response;
    }
    std::lock_guard<std::mutex> lock(registration_mutex_);
    shard = shards_[static_cast<size_t>(registrations_++ %
                                        static_cast<int64_t>(
                                            shards_.size()))]
                .get();
  } else if (request.kind == RpcKind::kQueryBatch ||
             request.kind == RpcKind::kReattach) {
    if (request.object_id < 0) {
      response.status = InvalidArgumentError("negative object id");
      return response;
    }
    shard = shards_[static_cast<size_t>(
                        request.object_id %
                        static_cast<int64_t>(shards_.size()))]
                .get();
  } else {
    response.status = InternalError("undispatchable request kind");
    return response;
  }
  // The in-flight count is the worker's whole memory of outstanding
  // work: admitted requests are parked on the shard mutex, nothing else
  // buffers.
  const Status admitted = Admit(*shard);
  if (!admitted.ok()) {
    response.status = admitted;
    return response;
  }
  // The slot goes back even if execution throws (an allocation failure),
  // so a drain never waits for a release that cannot come.
  struct Releaser {
    Shard& shard;
    ~Releaser() { Release(shard); }
  } releaser{*shard};
  std::lock_guard<std::mutex> lock(shard->mutex);
  return ExecuteOnShard(*shard, request);
}

void ClusterWorker::HandleConnection(Connection connection) {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Wait for the next request or a stop, whichever comes first; the io
    // deadline only starts once bytes are actually arriving.
    const Status readable = connection.WaitReadable(kStopPollMs, wake_fd_);
    if (readable.code() == StatusCode::kDeadlineExceeded) continue;
    if (!readable.ok()) break;
    auto request_bytes = connection.Receive(options_.io_timeout_ms);
    if (!request_bytes.ok()) {
      // Clean departure, reset, or garbage: either way this connection is
      // done.
      break;
    }
    // The RPC envelope is the only checksum on the socket, so a body that
    // fails to decode may equally be a damaged frame: the stream is no
    // longer trusted, and the client sees kUnavailable and fails over.
    auto request = DecodeRpcRequest(*request_bytes);
    if (!request.ok()) break;
    const RpcResponse response = Execute(*request);
    DCS_METRIC_INC("serve.cluster.requests");
    if (!connection.Send(EncodeRpcResponse(response),
                         options_.io_timeout_ms)
             .ok()) {
      break;
    }
  }
}

void ClusterWorker::JoinConnections(bool finished_only) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.remove_if([finished_only](ConnectionHandler& handler) {
    if (finished_only &&
        !handler.finished.load(std::memory_order_acquire)) {
      return false;
    }
    if (handler.thread.joinable()) handler.thread.join();
    return true;
  });
}

Status ClusterWorker::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto accepted = listener_.Accept(kStopPollMs, wake_fd_);
    if (!accepted.ok()) {
      // A timeout loops; a wake means the stop flag is set.
      if (accepted.status().code() == StatusCode::kDeadlineExceeded ||
          stop_.load(std::memory_order_relaxed)) {
        continue;
      }
      return accepted.status();
    }
    JoinConnections(/*finished_only=*/true);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ConnectionHandler& handler = connections_.emplace_back();
    handler.thread = std::thread(
        [this, &handler,
         conn = std::make_shared<Connection>(std::move(*accepted))] {
          HandleConnection(std::move(*conn));
          handler.finished.store(true, std::memory_order_release);
        });
  }
  // Drain: stop admitting and accepting, wait for every admitted request
  // to answer, then join the connections (an idle one is woken by the
  // stop; a busy one answers its request and then sees stop_).
  listener_.Close();
  DrainShards();
  JoinConnections(/*finished_only=*/false);
  // Nothing is admitted or executing: no registration can race the seal,
  // so a SIGTERM-driven drain never leaves a segment that fsck reports
  // corrupt beyond a torn tail.
  return PersistOnDrain();
}

int64_t ClusterWorker::num_registered() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->service->num_objects();
  return total;
}

int64_t ClusterWorker::cache_entries() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->service->cache_size();
  return total;
}

}  // namespace dcs
