// The worker side of the multi-process serving tier (DESIGN.md §14).
//
// A ClusterWorker hosts `num_shards` single-threaded CutQueryService
// instances, each behind its own mutex and a bounded in-flight count:
//
//   accept thread ──► connection thread ──admit──► shard mutex ──► shard
//   (one per client)  (decode request)   (count)   (one at a time)
//
// The connection thread that decoded a request also executes it; no job
// is handed to another thread. Admission control: a shard admits one
// executing request plus `queue_capacity` waiting for its mutex, and a
// request over that bound fails immediately with kResourceExhausted — the
// worker never buffers unboundedly, and overload is a fast, explicit
// signal the client must respect (the cluster client deliberately does
// NOT fail over on it; see cluster_client.h). The shard mutex also
// serializes registration against queries — the CutQueryService contract
// ("register before serving") holds per shard by construction. Waiters
// get the shard in mutex order, not FIFO.
//
// Object ids returned to clients encode the shard: id = local * S + shard.
// Registrations round-robin across shards; queries route by id % S.
//
// Shutdown is drain-then-stop (the SIGTERM path): RequestStop() is
// async-signal-safe (an atomic store and a write to the wake eventfd that
// the accept loop and every idle connection poll, so each sees the stop
// at once); Serve() then stops admitting
// (new requests get kUnavailable, "worker draining"), stops accepting,
// waits until every admitted request has answered, joins the connection
// threads, and seals the store. A client mid-request gets its answer.
//
// Every response carries the worker's instance token (drawn at
// construction from pid + monotonic clock), so a client can detect that a
// respawned process replaced the one holding its registrations.

#ifndef DCS_SERVE_CLUSTER_H_
#define DCS_SERVE_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
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

struct ClusterWorkerOptions {
  int num_shards = 2;        // CutQueryService instances (>= 1)
  // Requests that may wait per shard behind the one executing (>= 1).
  int queue_capacity = 64;
  int io_timeout_ms = 5000;  // per-message deadline on connections
  // Test seam: sleep this long under the shard mutex in each executed
  // request, so admission tests can fill a shard deterministically. 0 in
  // production.
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
  // Largest vertex count a worker registers: a cluster limit. Registering
  // indexes the graph (DirectedGraph::BuildAdjacency), whose largest
  // arrays hold n + 1 int64 each, so the cap keeps each one at 64 MiB,
  // under half the 128 MB single-allocation bound the sanitizer receivers
  // pass runs with. A register request over it is refused with
  // kInvalidArgument before anything is stored, a store holding such a
  // graph refuses to warm-load, and `dcs cluster` refuses a larger --n.
  static constexpr int kMaxVertices = 1 << 23;

  // Binds and listens immediately (so the spawner can connect as soon as
  // the constructor returns); Serve() runs the accept loop.
  static StatusOr<std::unique_ptr<ClusterWorker>> Create(
      const Endpoint& endpoint, ClusterWorkerOptions options);

  ~ClusterWorker();

  ClusterWorker(const ClusterWorker&) = delete;
  ClusterWorker& operator=(const ClusterWorker&) = delete;

  // Accept loop: runs until RequestStop(), then drains (admission closed,
  // admitted requests answered, threads joined, store sealed) and returns.
  Status Serve();

  // Async-signal-safe stop request: a relaxed atomic store, then one
  // write(2) to the wake eventfd, which wakes Serve()'s accept wait and
  // every idle connection's read-wait at once.
  void RequestStop() noexcept;

  // The bound endpoint (reports the real port when created with port 0).
  const Endpoint& endpoint() const { return listener_.local_endpoint(); }
  uint64_t token() const { return token_; }

  // Admits one already-decoded request to its shard and executes it on the
  // calling thread. Connection threads call it per request; tests call it
  // directly, bypassing the socket. kPing is answered without admission.
  // Over the shard's bound: kResourceExhausted; once draining:
  // kUnavailable.
  RpcResponse Execute(const RpcRequest& request);

  // Objects live on this worker (warm-loaded + freshly registered).
  int64_t num_registered() const;
  // Cache entries across every shard (warm-restart observability).
  int64_t cache_entries() const;
  // Objects warm-loaded from the store at Create (0 without a store).
  int64_t warm_loaded_objects() const { return warm_loaded_objects_; }

 private:
  struct Shard {
    int index = 0;  // position in shards_ (the id's shard digit)
    std::unique_ptr<CutQueryService> service;
    // Requests admitted and not yet answered (the one executing plus
    // those waiting for `mutex`), or'd with kDraining once drain starts.
    std::atomic<int> in_flight{0};
    std::mutex mutex;  // held while a request executes
    // Graphs live here because CutQueryService::RegisterGraph keeps a
    // reference; deque never reallocates element storage.
    std::deque<DirectedGraph> graphs;
    // Envelope checksum of graphs[i] (the kReattach identity check).
    std::deque<uint32_t> checksums;
  };

  // Takes ownership of `wake_fd`, the stop eventfd.
  ClusterWorker(Listener listener, ClusterWorkerOptions options,
                int wake_fd);

  // Replays every persisted object into the shards from the verified
  // records SketchStore::Open handed over (newest per object, ascending
  // id): deserializes and indexes them on one thread per core, then
  // registers serially in ascending global id, reproducing the round-robin
  // assignment (id k -> shard k % S, local k / S), and reloads the drain
  // cache snapshot.
  // Runs before Serve(), so no synchronization against queries is needed.
  Status WarmLoadFromStore(std::vector<SegmentRecord> records);
  // Drain-side of the warm tier: dump the hottest cache entries and seal
  // the open segment.
  Status PersistOnDrain();

  void HandleConnection(Connection connection);
  // Joins connection handler threads: every one, or with `finished_only`
  // just those whose loop already returned (so a long-lived worker does
  // not keep one exited thread's stack mapped per past connection).
  void JoinConnections(bool finished_only);
  // Takes one in-flight slot on `shard`, or says why not (draining, or
  // the bound is reached). Never blocks.
  Status Admit(Shard& shard);
  // Returns the slot Admit took, waking a drain waiting on the shard.
  static void Release(Shard& shard);
  // Closes admission on every shard and waits until each has answered
  // every request it admitted. Idempotent.
  void DrainShards();
  // Runs one admitted request; the caller holds shard.mutex.
  RpcResponse ExecuteOnShard(Shard& shard, const RpcRequest& request);

  ClusterWorkerOptions options_;
  Listener listener_;
  uint64_t token_ = 0;
  std::atomic<bool> stop_{false};
  // Stop eventfd: written once by RequestStop, polled beside the listener
  // and every idle connection, never read.
  int wake_fd_ = -1;
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
