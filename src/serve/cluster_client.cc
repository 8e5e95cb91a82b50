#include "serve/cluster_client.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/metrics.h"

namespace dcs {

void ClusterClientOptions::Check() const {
  DCS_CHECK_GE(replication, 1);
  transport.Check();
}

ClusterClient::ClusterClient(std::vector<Endpoint> workers,
                             ClusterClientOptions options)
    : options_(options) {
  options_.Check();
  DCS_CHECK_GE(workers.size(), 1u);
  workers_.reserve(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    workers_.push_back(std::make_unique<WorkerState>(
        std::move(workers[w]),
        SubtaskSeed(options_.seed, static_cast<int64_t>(w))));
  }
}

ClusterClient::WorkerHealth ClusterClient::worker_health(int worker) const {
  DCS_CHECK_GE(worker, 0);
  DCS_CHECK_LT(worker, num_workers());
  return workers_[static_cast<size_t>(worker)]->health;
}

StatusOr<RpcResponse> ClusterClient::Call(int worker,
                                          const RpcRequest& request,
                                          bool even_if_dead) {
  WorkerState& w = *workers_[static_cast<size_t>(worker)];
  if (w.health == WorkerHealth::kDead && !even_if_dead) {
    return UnavailableError("worker " + w.endpoint.ToSpec() +
                            " is marked dead");
  }
  if (!w.connection.valid()) {
    auto connection =
        ConnectWithBackoff(w.endpoint, options_.transport, w.jitter_rng);
    if (!connection.ok()) {
      w.health = w.health == WorkerHealth::kHealthy ? WorkerHealth::kSuspect
                                                    : w.health;
      return connection.status();
    }
    w.connection = std::move(*connection);
  }
  const Message encoded = EncodeRpcRequest(request);
  Status sent = w.connection.Send(encoded, options_.transport.io_timeout_ms);
  if (!sent.ok()) {
    w.connection.Close();
    w.health = WorkerHealth::kSuspect;
    return sent;
  }
  auto reply = w.connection.Receive(options_.transport.io_timeout_ms);
  if (!reply.ok()) {
    w.connection.Close();
    w.health = WorkerHealth::kSuspect;
    return reply.status();
  }
  auto response = DecodeRpcResponse(*reply);
  if (!response.ok()) {
    // The stream is corrupt or out of sync; the connection is unusable.
    w.connection.Close();
    w.health = WorkerHealth::kSuspect;
    return response.status();
  }
  // Record the observed instance token. A change relative to any stored
  // replica token proves that worker restarted (IsStale picks this up).
  w.token = response->server_token;
  w.health = WorkerHealth::kHealthy;
  return response;
}

bool ClusterClient::IsStale(const Replica& replica,
                            const WorkerState& worker) const {
  if (!replica.registered) return true;
  return worker.token != 0 && replica.token != worker.token;
}

Status ClusterClient::RegisterOn(const RpcRequest& request,
                                 Replica& replica) {
  DCS_ASSIGN_OR_RETURN(const RpcResponse response,
                       Call(replica.worker, request));
  DCS_RETURN_IF_ERROR(response.status);
  replica.remote_id = response.object_id;
  replica.token = response.server_token;
  replica.registered = true;
  DCS_METRIC_INC("serve.cluster_client.replicas_registered");
  return OkStatus();
}

Status ClusterClient::ReattachOn(const ObjectState& object, Replica& replica) {
  if (replica.remote_id < 0) {
    return NotFoundError("replica never held a remote id");
  }
  RpcRequest request;
  request.kind = RpcKind::kReattach;
  request.object_id = replica.remote_id;
  request.num_vertices = object.graph.num_vertices();
  request.graph_checksum = object.graph_checksum;
  DCS_ASSIGN_OR_RETURN(const RpcResponse response,
                       Call(replica.worker, request));
  DCS_RETURN_IF_ERROR(response.status);
  replica.remote_id = response.object_id;
  replica.token = response.server_token;
  replica.registered = true;
  ++reattached_replicas_;
  DCS_METRIC_INC("serve.cluster_client.replicas_reattached");
  return OkStatus();
}

StatusOr<ClusterClient::ObjectHandle> ClusterClient::RegisterReplicated(
    const DirectedGraph& graph) {
  const ObjectHandle handle = static_cast<ObjectHandle>(objects_.size());
  // Serialized once; every replica is sent the same envelope, and the
  // graph's reattach identity comes with it.
  const RpcRequest request = RegisterGraphRequest(graph);
  ObjectState object{graph, {}, request.graph->checksum()};
  const int num_replicas = std::min(options_.replication, num_workers());
  int successes = 0;
  Status last = UnavailableError("no replicas attempted");
  for (int r = 0; r < num_replicas; ++r) {
    Replica replica;
    replica.worker = static_cast<int>((handle + r) % num_workers());
    const Status status = RegisterOn(request, replica);
    if (status.ok()) {
      ++successes;
    } else {
      last = status;
    }
    object.replicas.push_back(replica);
  }
  if (successes == 0) return last;
  objects_.push_back(std::move(object));
  return handle;
}

StatusOr<std::vector<double>> ClusterClient::AnswerBatch(
    ObjectHandle handle, const std::vector<VertexSet>& sides) {
  if (handle < 0 || handle >= static_cast<ObjectHandle>(objects_.size())) {
    return InvalidArgumentError("unknown object handle " +
                                std::to_string(handle));
  }
  ObjectState& object = objects_[static_cast<size_t>(handle)];
  RpcRequest request;
  request.kind = RpcKind::kQueryBatch;
  request.num_vertices = object.graph.num_vertices();
  request.sides = sides;
  Status last = UnavailableError("no replicas attempted");
  for (Replica& replica : object.replicas) {
    WorkerState& worker = *workers_[static_cast<size_t>(replica.worker)];
    if (worker.health == WorkerHealth::kDead ||
        IsStale(replica, worker)) {
      continue;  // failover past known-bad replicas without spending a call
    }
    request.object_id = replica.remote_id;
    auto response = Call(replica.worker, request);
    if (!response.ok()) {
      // Transport-level failure (connect, deadline, stream corruption):
      // Call already demoted the worker; fail over.
      last = response.status();
      DCS_METRIC_INC("serve.cluster_client.failovers");
      continue;
    }
    if (response->server_token != replica.token) {
      // The worker answered but is a different incarnation than the one
      // we registered on: this object id now belongs to *someone else's*
      // registration (or nobody). Using the answer could silently return
      // another object's cut values — the one failure mode the soak's
      // zero-wrong-bits invariant exists to catch. Mark stale, fail over.
      replica.registered = false;
      last = NotFoundError("worker restarted since registration");
      DCS_METRIC_INC("serve.cluster_client.failovers");
      continue;
    }
    const Status& peer = response->status;
    if (peer.ok()) {
      if (response->values.size() != sides.size()) {
        return DataLossError("worker answered " +
                             std::to_string(response->values.size()) +
                             " values for " + std::to_string(sides.size()) +
                             " queries");
      }
      return std::move(response->values);
    }
    if (peer.code() == StatusCode::kResourceExhausted) {
      // Backpressure propagates to the caller — never failover, which
      // would amplify the very overload the worker just reported.
      return peer;
    }
    if (peer.code() == StatusCode::kUnavailable ||
        peer.code() == StatusCode::kNotFound) {
      if (peer.code() == StatusCode::kNotFound) replica.registered = false;
      last = peer;
      DCS_METRIC_INC("serve.cluster_client.failovers");
      continue;
    }
    return peer;  // the request itself is wrong; no replica will differ
  }
  return UnavailableError("all " + std::to_string(object.replicas.size()) +
                          " replicas lost: " + last.ToString());
}

Status ClusterClient::HealthCheck() {
  RpcRequest ping;
  ping.kind = RpcKind::kPing;
  for (int w = 0; w < num_workers(); ++w) {
    const WorkerHealth before = workers_[static_cast<size_t>(w)]->health;
    auto response = Call(w, ping, /*even_if_dead=*/true);
    if (!response.ok()) {
      // A restarted worker leaves the previous connection half-open: the
      // first call fails while tearing it down, so one retry on a fresh
      // connection is what distinguishes a restart from a dead worker.
      response = Call(w, ping, /*even_if_dead=*/true);
    }
    if (response.ok()) continue;  // Call already revived it
    workers_[static_cast<size_t>(w)]->health =
        before == WorkerHealth::kHealthy ? WorkerHealth::kSuspect
                                         : WorkerHealth::kDead;
  }
  return OkStatus();
}

StatusOr<int64_t> ClusterClient::Repair() {
  int64_t repaired = 0;
  for (ObjectState& object : objects_) {
    for (Replica& replica : object.replicas) {
      WorkerState& worker = *workers_[static_cast<size_t>(replica.worker)];
      if (worker.health != WorkerHealth::kHealthy) continue;
      if (!IsStale(replica, worker)) continue;
      // Fast path first: a store-backed respawn warm-loaded the object
      // under the same id, so reattaching skips re-sending the graph.
      // Workers without a matching warm object answer kNotFound and the
      // full re-register runs as before.
      if (ReattachOn(object, replica).ok() ||
          RegisterOn(RegisterGraphRequest(object.graph), replica).ok()) {
        ++repaired;
      }
    }
  }
  DCS_METRIC_ADD("serve.cluster_client.replicas_repaired", repaired);
  return repaired;
}

}  // namespace dcs
