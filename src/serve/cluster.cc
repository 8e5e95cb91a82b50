#include "serve/cluster.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <string>
#include <utility>

#include "sketch/serialization.h"
#include "store/cache_snapshot.h"
#include "util/bitio.h"
#include "util/checksum.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// How often idle accept and connection loops wake to check the stop flag.
constexpr int kStopPollMs = 100;

// The worker's instance token: distinct across respawns (monotonic clock
// advances; pids differ), never zero (zero means "unknown" client-side).
uint64_t DrawInstanceToken() {
  const uint64_t ticks = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const uint64_t token =
      ticks ^ (static_cast<uint64_t>(::getpid()) << 40);
  return token == 0 ? 1 : token;
}

}  // namespace

BoundedJobQueue::BoundedJobQueue(int capacity) : capacity_(capacity) {
  DCS_CHECK_GE(capacity, 1);
}

Status BoundedJobQueue::TryPush(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      return UnavailableError("job queue is stopped");
    }
    if (static_cast<int>(jobs_.size()) >= capacity_) {
      DCS_METRIC_INC("serve.cluster.queue_rejected");
      return ResourceExhaustedError(
          "shard queue full (" + std::to_string(capacity_) +
          " requests in flight); retry after backoff");
    }
    jobs_.push_back(std::move(job));
  }
  ready_.notify_one();
  return OkStatus();
}

std::optional<std::function<void()>> BoundedJobQueue::Pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return stopped_ || !jobs_.empty(); });
  if (jobs_.empty()) return std::nullopt;  // stopped and drained
  std::function<void()> job = std::move(jobs_.front());
  jobs_.pop_front();
  return job;
}

void BoundedJobQueue::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  ready_.notify_all();
}

int64_t BoundedJobQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(jobs_.size());
}

void ClusterWorkerOptions::Check() const {
  DCS_CHECK_GE(num_shards, 1);
  DCS_CHECK_GE(queue_capacity, 1);
  DCS_CHECK_GE(io_timeout_ms, 1);
  DCS_CHECK_GE(execution_delay_ms, 0);
  DCS_CHECK_GE(warm_cache_entries, 0);
}

ClusterWorker::ClusterWorker(Listener listener, ClusterWorkerOptions options)
    : options_(options),
      listener_(std::move(listener)),
      token_(DrawInstanceToken()) {
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    CutQueryServiceOptions service_options;
    service_options.num_threads = 1;  // the shard thread IS the executor
    shard->service = std::make_unique<CutQueryService>(service_options);
    shard->queue =
        std::make_unique<BoundedJobQueue>(options_.queue_capacity);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->runner = std::thread([queue = shard->queue.get()] {
      while (auto job = queue->Pop()) (*job)();
    });
  }
}

StatusOr<std::unique_ptr<ClusterWorker>> ClusterWorker::Create(
    const Endpoint& endpoint, ClusterWorkerOptions options) {
  options.Check();
  DCS_ASSIGN_OR_RETURN(Listener listener, Listener::Listen(endpoint));
  std::unique_ptr<ClusterWorker> worker(
      new ClusterWorker(std::move(listener), options));
  if (!options.store_dir.empty()) {
    DCS_ASSIGN_OR_RETURN(worker->store_,
                         SketchStore::Open(options.store_dir));
    DCS_RETURN_IF_ERROR(worker->WarmLoadFromStore());
  }
  return worker;
}

Status ClusterWorker::WarmLoadFromStore() {
  // Replay persisted objects in ascending global id. Round-robin
  // registration makes the global id equal to the registration counter, so
  // an ascending replay reproduces every assignment: id k lands on shard
  // k % S at local index k / S — exactly where a query for id k routes.
  const std::vector<int64_t> ids = store_->ListObjects();
  const int64_t num_shards = static_cast<int64_t>(shards_.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    if (id != static_cast<int64_t>(i)) {
      return DataLossError(
          "store object ids are not contiguous from 0 (found id " +
          std::to_string(id) + " at position " + std::to_string(i) +
          "); refusing to warm-load with a broken id assignment");
    }
    DCS_ASSIGN_OR_RETURN(const StoredObject object, store_->Get(id));
    if (object.kind != StreamKind::kDirectedGraph) {
      return DataLossError("store object " + std::to_string(id) +
                           " is a " + StreamKindName(object.kind) +
                           ", not a directed graph");
    }
    BitReader reader(object.bytes);
    DCS_ASSIGN_OR_RETURN(DirectedGraph graph,
                         DeserializeDirectedGraph(reader));
    const uint32_t checksum = Fnv1a32(object.bytes);
    Shard& shard = *shards_[static_cast<size_t>(id % num_shards)];
    shard.graphs.push_back(std::move(graph));
    shard.checksums.push_back(checksum);
    const CutQueryService::ObjectId local =
        shard.service->RegisterGraph(shard.graphs.back());
    DCS_CHECK_EQ(local, id / num_shards);
    ++warm_loaded_objects_;
    DCS_METRIC_INC("serve.cluster.objects_warm_loaded");
  }
  registrations_ = static_cast<int64_t>(ids.size());
  // The previous incarnation's drained cache, if any. A snapshot is an
  // optimization: unreadable or stale files mean a cold cache, not a
  // failed boot.
  auto snapshot = ReadCacheSnapshotFile(store_->dir() + "/cache.snap");
  if (snapshot.ok()) {
    std::vector<std::vector<CutQueryCache::SnapshotEntry>> per_shard(
        shards_.size());
    for (const CacheSnapshotEntry& entry : *snapshot) {
      if (entry.object < 0 ||
          entry.object >= static_cast<int64_t>(ids.size())) {
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
  JoinConnections(/*finished_only=*/false);
  for (auto& shard : shards_) {
    shard->queue->Stop();
    if (shard->runner.joinable()) shard->runner.join();
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
      // Recover the shard index from the routing invariant rather than
      // storing it: this shard was picked as global % S.
      int shard_index = 0;
      for (; shard_index < num_shards; ++shard_index) {
        if (shards_[static_cast<size_t>(shard_index)].get() == &shard) break;
      }
      BitWriter writer;
      SerializeDirectedGraph(*request.graph, writer);
      const int64_t global_id =
          shard.service->num_objects() * num_shards + shard_index;
      if (store_ != nullptr) {
        // Persist before registering: an object is only queryable once
        // its bytes are in the segment, so a respawned worker can always
        // warm-load everything it ever acknowledged.
        const Status put = store_->Put(global_id,
                                       StreamKind::kDirectedGraph,
                                       writer.bytes(), writer.bit_count());
        if (!put.ok()) {
          response.status = put;
          break;
        }
      }
      // Matches the client's GraphEnvelopeChecksum: serialization is
      // canonical.
      const uint32_t checksum = Fnv1a32(writer.bytes());
      shard.graphs.push_back(*request.graph);
      shard.checksums.push_back(checksum);
      const CutQueryService::ObjectId local =
          shard.service->RegisterGraph(shard.graphs.back());
      response.object_id = local * num_shards + shard_index;
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

RpcResponse ClusterWorker::Dispatch(const RpcRequest& request) {
  RpcResponse response;
  response.server_token = token_;
  if (request.kind == RpcKind::kPing) {
    response.status = OkStatus();  // answered inline: health checks must
    return response;               // succeed even when every queue is full
  }
  Shard* shard = nullptr;
  if (request.kind == RpcKind::kRegisterGraph) {
    if (!request.graph.has_value()) {
      response.status = InvalidArgumentError("register request has no graph");
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
  // The connection thread parks here while the shard thread runs the job;
  // the bounded queue depth is therefore the worker's whole memory of
  // outstanding work — nothing else buffers.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  const Status admitted = shard->queue->TryPush([&] {
    RpcResponse result = ExecuteOnShard(*shard, request);
    std::lock_guard<std::mutex> lock(done_mutex);
    response = std::move(result);
    done = true;
    done_cv.notify_one();
  });
  if (!admitted.ok()) {
    response.status = admitted;  // kResourceExhausted fast-reject
    return response;
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return done; });
  return response;
}

RpcResponse ClusterWorker::Execute(const RpcRequest& request) {
  return Dispatch(request);
}

void ClusterWorker::HandleConnection(Connection connection) {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Wait for the next request with a short poll so the stop flag is
    // observed promptly on idle connections; the io deadline only starts
    // once bytes are actually arriving.
    struct pollfd pfd;
    pfd.fd = connection.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kStopPollMs);
    if (ready == 0) continue;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    auto request_bytes = connection.Receive(options_.io_timeout_ms);
    if (!request_bytes.ok()) {
      // Clean departure, reset, or garbage: either way this connection is
      // done. (A decode failure below keeps the connection — framing is
      // intact, only the body was bad.)
      break;
    }
    RpcResponse response;
    response.server_token = token_;
    auto request = DecodeRpcRequest(*request_bytes);
    if (request.ok()) {
      response = Dispatch(*request);
    } else {
      response.status = request.status();
    }
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
    auto accepted = listener_.Accept(kStopPollMs);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // poll the stop flag
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
  // Drain: stop accepting, let every connection finish its in-flight
  // request (they observe stop_ within kStopPollMs), then run the
  // queues dry before joining the shard threads.
  listener_.Close();
  JoinConnections(/*finished_only=*/false);
  for (auto& shard : shards_) shard->queue->Stop();
  for (auto& shard : shards_) {
    if (shard->runner.joinable()) shard->runner.join();
  }
  // Queues are dry and shard threads joined: no registration can race the
  // seal, so a SIGTERM-driven drain never leaves a segment that fsck
  // reports corrupt beyond a torn tail.
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
