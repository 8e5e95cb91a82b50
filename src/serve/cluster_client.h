// The coordinator/client side of the multi-process serving tier
// (DESIGN.md §14): replication, health checking and failover.
//
// RegisterReplicated places the whole graph on R workers; replica r of
// object `handle` lives on worker (handle + r) % W, so R-way replication
// spreads evenly and any R-1 simultaneous worker losses leave at least
// one replica. Any replica answers with the exact same code path
// (deserialize-preserved edge order + ExactCutOracle edge scan), so
// failover answers are BIT-IDENTICAL to a single-process oracle — the
// chaos soak's "zero wrong bits" invariant. All replicas lost →
// kUnavailable.
//
// Failover policy (who eats which error):
//  * transport failures (kUnavailable, "transport deadline:"
//    kDeadlineExceeded, kDataLoss) — mark the worker Suspect, drop the
//    connection, try the next replica;
//  * peer kUnavailable / kNotFound (worker draining, or respawned and
//    amnesiac) — mark the replica stale, try the next replica;
//  * peer kResourceExhausted — returned to the caller IMMEDIATELY, no
//    failover: admission control is backpressure, and shifting the same
//    load onto the remaining replicas would amplify exactly the overload
//    the worker just reported;
//  * any other peer error (kInvalidArgument, ...) — the request itself is
//    wrong; returned to the caller.
//
// Worker lifecycle: Healthy → Suspect (a call failed) → Dead (health check
// failed). HealthCheck() pings every worker: success revives it (and
// records its instance token); a token change proves a respawn, so every
// replica registered under the old token is stale. Repair() re-registers
// stale replicas from the client's retained graphs, returning the cluster
// to full replication — the respawn half of the chaos loop.
//
// A ClusterClient is NOT thread-safe: one per load-generator thread.

#ifndef DCS_SERVE_CLUSTER_CLIENT_H_
#define DCS_SERVE_CLUSTER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/digraph.h"
#include "graph/types.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

struct ClusterClientOptions {
  int replication = 2;  // R: replicas per object
  TransportOptions transport;
  uint64_t seed = 0;  // reconnect jitter determinism

  void Check() const;
};

class ClusterClient {
 public:
  enum class WorkerHealth { kHealthy, kSuspect, kDead };

  using ObjectHandle = int64_t;

  ClusterClient(std::vector<Endpoint> workers, ClusterClientOptions options);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  WorkerHealth worker_health(int worker) const;

  // Registers `graph` whole on R workers starting at (handle % W),
  // serializing it once for all of them.
  // Requires at least one successful replica; fewer than R successes is
  // still OK (Repair will finish the job once workers return).
  StatusOr<ObjectHandle> RegisterReplicated(const DirectedGraph& graph);

  // Answers a batch on the object's first answering replica (marking
  // replicas stale as failures reveal them); failover per the policy
  // above. kInvalidArgument for a handle this client never issued;
  // kUnavailable when every replica is lost; kResourceExhausted passes
  // straight through.
  StatusOr<std::vector<double>> AnswerBatch(
      ObjectHandle handle, const std::vector<VertexSet>& sides);

  // Pings every worker. Revives responders (Suspect/Dead → Healthy),
  // demotes non-responders (Suspect → Dead), and records instance tokens.
  // Always OK; per-worker results land in worker_health().
  Status HealthCheck();

  // Repairs every stale replica (worker respawned since registration, or
  // registration never succeeded) on currently-healthy workers. A replica
  // that once held a remote id is first offered a kReattach — a store-
  // backed worker that warm-loaded the identical object (id + vertex count
  // + envelope checksum) revives it without the graph crossing the wire;
  // anything else falls back to a full re-register. Returns the number of
  // replicas repaired (either way).
  StatusOr<int64_t> Repair();

  // Replicas revived via the reattach fast path over this client's
  // lifetime (observability for warm-restart tests and bench_store).
  int64_t reattached_replicas() const { return reattached_replicas_; }

 private:
  struct Replica {
    int worker = 0;
    int64_t remote_id = -1;     // worker-local object id
    uint64_t token = 0;         // worker token at registration
    bool registered = false;
  };
  struct ObjectState {
    DirectedGraph graph;  // retained for repair
    std::vector<Replica> replicas;
    // Envelope checksum of `graph` (kReattach identity), taken from the
    // register request that first sent it.
    uint32_t graph_checksum = 0;
  };
  struct WorkerState {
    Endpoint endpoint;
    Connection connection;
    WorkerHealth health = WorkerHealth::kHealthy;
    uint64_t token = 0;  // last observed instance token (0 = never seen)
    Rng jitter_rng;
    explicit WorkerState(Endpoint e, uint64_t jitter_seed)
        : endpoint(std::move(e)), jitter_rng(jitter_seed) {}
  };

  // One request/response exchange with a worker, reconnecting (with
  // backoff) if needed. Transport failures close the connection and mark
  // the worker Suspect. Token changes are recorded as they are observed.
  // Dead workers are refused unless even_if_dead (the health-check probe).
  StatusOr<RpcResponse> Call(int worker, const RpcRequest& request,
                             bool even_if_dead = false);

  // True if `replica` can no longer be trusted: never registered, or the
  // worker has been seen with a newer token since.
  bool IsStale(const Replica& replica, const WorkerState& worker) const;

  // Sends a kRegisterGraph request (RegisterGraphRequest) to the replica's
  // worker and records the id and token it answers with.
  Status RegisterOn(const RpcRequest& request, Replica& replica);

  // The fast half of Repair: ask the worker to revive `replica.remote_id`
  // from its warm store instead of re-sending the graph. Any failure means
  // "fall back to RegisterOn", never "give up".
  Status ReattachOn(const ObjectState& object, Replica& replica);

  ClusterClientOptions options_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<ObjectState> objects_;
  int64_t reattached_replicas_ = 0;
};

}  // namespace dcs

#endif  // DCS_SERVE_CLUSTER_CLIENT_H_
