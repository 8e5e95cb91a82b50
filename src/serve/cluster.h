// The worker side of the multi-process serving tier (DESIGN.md §14).
//
// A ClusterWorker hosts `num_shards` single-threaded CutQueryService
// instances behind per-shard *bounded* request queues:
//
//   accept thread ──► connection thread ──TryPush──► shard queue ──► shard
//   (one per client)  (decode request)               (bounded)       thread
//
// Admission control: TryPush on a full queue fails immediately and the
// connection thread answers kResourceExhausted — the worker never buffers
// unboundedly, and overload is a fast, explicit signal the client must
// respect (the cluster client deliberately does NOT fail over on it; see
// cluster_client.h). Execution stays on the shard's single thread, which
// also serializes registration against queries — the CutQueryService
// contract ("register before serving") holds per shard by construction.
//
// Object ids returned to clients encode the shard: id = local * S + shard.
// Registrations round-robin across shards; queries route by id % S.
//
// Shutdown is drain-then-stop (the SIGTERM path): RequestStop() is
// async-signal-safe (one atomic store); Serve() then stops accepting,
// lets every connection thread finish its in-flight request, drains the
// shard queues, and joins. A client mid-request gets its answer; new
// requests on still-open connections get kUnavailable ("worker draining").
//
// Every response carries the worker's instance token (drawn at
// construction from pid + monotonic clock), so a client can detect that a
// respawned process replaced the one holding its registrations.

#ifndef DCS_SERVE_CLUSTER_H_
#define DCS_SERVE_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/digraph.h"
#include "serve/cut_query_service.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "store/sketch_store.h"
#include "util/status.h"

namespace dcs {

// A fixed-capacity FIFO of jobs with fast-reject admission and
// drain-then-stop shutdown. Thread-safe.
class BoundedJobQueue {
 public:
  explicit BoundedJobQueue(int capacity);

  BoundedJobQueue(const BoundedJobQueue&) = delete;
  BoundedJobQueue& operator=(const BoundedJobQueue&) = delete;

  // Enqueues without blocking. kResourceExhausted when full (the admission
  // signal), kUnavailable once Stop() has been called.
  Status TryPush(std::function<void()> job);

  // Blocks until a job is available or the queue is stopped AND empty
  // (drain: jobs accepted before Stop still run). nullopt = drained.
  std::optional<std::function<void()>> Pop();

  // Begins drain-then-stop: no new pushes, Pop keeps returning queued jobs
  // until empty, then returns nullopt. Idempotent.
  void Stop();

  int capacity() const { return capacity_; }
  int64_t size() const;

 private:
  const int capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> jobs_;
  bool stopped_ = false;
};

struct ClusterWorkerOptions {
  int num_shards = 2;        // CutQueryService instances (>= 1)
  int queue_capacity = 64;   // per-shard bounded queue depth (>= 1)
  int io_timeout_ms = 5000;  // per-message deadline on connections
  // Test seam: sleep this long inside each executed job, so admission
  // tests can fill a queue deterministically. 0 in production.
  int execution_delay_ms = 0;
  // Cold/warm tiers (DESIGN.md §15). Empty = in-memory only (the
  // pre-store behavior). Non-empty: registered graphs persist to a
  // SketchStore in this directory, Create() warm-loads every persisted
  // object (reproducing the original id assignment) plus the hottest
  // cache entries from the previous incarnation's drain snapshot, and
  // Serve()'s drain seals the open segment and dumps the cache.
  std::string store_dir;
  // Cache entries persisted at drain (0 disables the snapshot).
  int64_t warm_cache_entries = 4096;

  void Check() const;
};

class ClusterWorker {
 public:
  // Binds and listens immediately (so the spawner can connect as soon as
  // the constructor returns); Serve() runs the accept loop.
  static StatusOr<std::unique_ptr<ClusterWorker>> Create(
      const Endpoint& endpoint, ClusterWorkerOptions options);

  ~ClusterWorker();

  ClusterWorker(const ClusterWorker&) = delete;
  ClusterWorker& operator=(const ClusterWorker&) = delete;

  // Accept loop: runs until RequestStop(), then drains (in-flight requests
  // answered, queues emptied, threads joined) and returns.
  Status Serve();

  // Async-signal-safe stop request (one relaxed atomic store); Serve()
  // observes it within one stop-flag poll (100 ms).
  void RequestStop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }

  // The bound endpoint (reports the real port when created with port 0).
  const Endpoint& endpoint() const { return listener_.local_endpoint(); }
  uint64_t token() const { return token_; }

  // Executes one already-decoded request against the owning shard,
  // bypassing the socket (the in-process half of transport tests).
  RpcResponse Execute(const RpcRequest& request);

  // Objects live on this worker (warm-loaded + freshly registered).
  int64_t num_registered() const;
  // Cache entries across every shard (warm-restart observability).
  int64_t cache_entries() const;
  // Objects warm-loaded from the store at Create (0 without a store).
  int64_t warm_loaded_objects() const { return warm_loaded_objects_; }

 private:
  struct Shard {
    std::unique_ptr<CutQueryService> service;
    std::unique_ptr<BoundedJobQueue> queue;
    std::thread runner;
    // Graphs live here because CutQueryService::RegisterGraph keeps a
    // reference; deque never reallocates element storage.
    std::deque<DirectedGraph> graphs;
    // Envelope checksum of graphs[i] (the kReattach identity check).
    std::deque<uint32_t> checksums;
  };

  ClusterWorker(Listener listener, ClusterWorkerOptions options);

  // Replays every persisted object into the shards (ascending global id
  // reproduces the round-robin assignment: id k -> shard k % S, local
  // k / S) and reloads the drain cache snapshot. Runs before Serve(), so
  // no synchronization against queries is needed.
  Status WarmLoadFromStore();
  // Drain-side of the warm tier: dump the hottest cache entries and seal
  // the open segment.
  Status PersistOnDrain();

  void HandleConnection(Connection connection);
  // Joins connection handler threads: every one, or with `finished_only`
  // just those whose loop already returned (so a long-lived worker does
  // not keep one exited thread's stack mapped per past connection).
  void JoinConnections(bool finished_only);
  RpcResponse ExecuteOnShard(Shard& shard, const RpcRequest& request);
  // Routes through the shard queue (admission control) and waits for the
  // shard thread to run it. Fast-rejects with kResourceExhausted.
  RpcResponse Dispatch(const RpcRequest& request);

  ClusterWorkerOptions options_;
  Listener listener_;
  uint64_t token_ = 0;
  std::atomic<bool> stop_{false};
  std::unique_ptr<SketchStore> store_;  // null without --store-dir
  int64_t warm_loaded_objects_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex registration_mutex_;  // round-robin registration counter
  int64_t registrations_ = 0;
  // One per accepted connection; a list so `finished` keeps its address.
  struct ConnectionHandler {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::mutex connections_mutex_;
  std::list<ConnectionHandler> connections_;
};

}  // namespace dcs

#endif  // DCS_SERVE_CLUSTER_H_
