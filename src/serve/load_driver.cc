#include "serve/load_driver.h"

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "serve/cluster_client.h"
#include "serve/cut_query_service.h"
#include "serve/worker_process.h"
#include "util/random.h"

namespace dcs {
namespace {

// Deterministic weighted multigraph. Irregular weights on purpose: the
// bit-identity check must cover real FP summation, not integer sums that
// could mask an order difference.
DirectedGraph MakeLoadGraph(int num_vertices, int num_edges, uint64_t seed) {
  Rng rng(seed);
  DirectedGraph graph(num_vertices);
  for (int e = 0; e < num_edges; ++e) {
    const int u = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_vertices)));
    int v = u;
    while (v == u) {
      v = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(num_vertices)));
    }
    graph.AddEdge(u, v, 0.5 + rng.UniformDouble());
  }
  return graph;
}

VertexSet RandomSide(int num_vertices, Rng& rng) {
  VertexSet side(static_cast<size_t>(num_vertices), 0);
  for (auto& bit : side) bit = rng.Bernoulli(0.5) ? 1 : 0;
  return side;
}

int64_t PercentileUs(std::vector<int64_t>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

}  // namespace

void ClusterLoadOptions::Check() const {
  DCS_CHECK(!server_binary.empty());
  DCS_CHECK(!socket_dir.empty());
  DCS_CHECK_GE(num_workers, 1);
  DCS_CHECK_GE(replication, 1);
  DCS_CHECK_GE(num_client_threads, 1);
  DCS_CHECK_GE(batches_per_thread, 1);
  DCS_CHECK_GE(batch_size, 1);
  DCS_CHECK_GE(kill_rate, 0.0);
  DCS_CHECK_LE(kill_rate, 1.0);
  DCS_CHECK_GE(kill_interval_ms, 1);
  DCS_CHECK_GE(respawn_delay_ms, 0);
  DCS_CHECK_GE(num_vertices, 2);
  DCS_CHECK_LE(num_vertices, ClusterWorker::kMaxVertices);
  DCS_CHECK_GE(num_edges, 1);
  worker.Check();
}

StatusOr<ClusterLoadReport> RunClusterLoad(const ClusterLoadOptions& options) {
  options.Check();
  const DirectedGraph graph =
      MakeLoadGraph(options.num_vertices, options.num_edges, options.seed);

  // The single-process oracle: the same CutQueryService + ExactCutOracle
  // code path every worker runs, on a graph with the same edge order the
  // workers deserialize — so equality below must be exact, bit for bit.
  CutQueryService reference;
  const CutQueryService::ObjectId reference_id =
      reference.RegisterGraph(graph);

  std::vector<Endpoint> endpoints;
  std::vector<WorkerProcess> processes(
      static_cast<size_t>(options.num_workers));
  std::mutex processes_mutex;
  // Each worker gets its own options so store-backed runs can give every
  // worker a private segment directory; respawns reuse the same options,
  // which is what makes a respawn warm-load its predecessor's store.
  std::vector<ClusterWorkerOptions> worker_options(
      static_cast<size_t>(options.num_workers), options.worker);
  for (int w = 0; w < options.num_workers; ++w) {
    DCS_ASSIGN_OR_RETURN(
        const Endpoint endpoint,
        ParseEndpoint("unix:" + options.socket_dir + "/worker" +
                      std::to_string(w) + ".sock"));
    endpoints.push_back(endpoint);
    if (!options.store_root.empty()) {
      worker_options[static_cast<size_t>(w)].store_dir =
          options.store_root + "/worker" + std::to_string(w);
    }
  }
  // Kill every child on every exit path; SIGTERM first (drain), SIGKILL
  // for anything that lingers.
  auto cleanup = [&] {
    std::lock_guard<std::mutex> lock(processes_mutex);
    for (WorkerProcess& process : processes) {
      if (!process.alive()) continue;
      KillWorker(process, SIGTERM).ToString();
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(2000);
    for (WorkerProcess& process : processes) {
      if (!process.alive()) continue;
      while (!ReapWorker(process, /*blocking=*/false).ok() &&
             process.alive()) {
        if (std::chrono::steady_clock::now() > deadline) {
          KillWorker(process, SIGKILL).ToString();
          ReapWorker(process, /*blocking=*/true).ToString();
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  };
  for (int w = 0; w < options.num_workers; ++w) {
    auto spawned = SpawnWorker(options.server_binary, endpoints[w],
                               worker_options[static_cast<size_t>(w)]);
    if (!spawned.ok()) {
      cleanup();
      return spawned.status();
    }
    processes[static_cast<size_t>(w)] = std::move(*spawned);
  }
  for (int w = 0; w < options.num_workers; ++w) {
    const Status ready = WaitForWorkerReady(endpoints[w], 5000);
    if (!ready.ok()) {
      cleanup();
      return ready;
    }
  }

  ClusterLoadReport report;
  std::mutex report_mutex;
  std::vector<int64_t> latencies_us;
  std::atomic<bool> clients_done{false};
  Status client_failure = OkStatus();

  // The killer: SIGKILL a random worker per Bernoulli(kill_rate) tick,
  // reap the corpse, respawn the same endpoint a beat later. Clients see
  // broken connections mid-batch and must fail over; the respawned
  // incarnation has a fresh token and an empty registry until repaired.
  std::thread killer;
  if (options.kill_rate > 0) {
    killer = std::thread([&] {
      Rng rng(SubtaskSeed(options.seed, 0x5160));
      while (!clients_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.kill_interval_ms));
        if (!rng.Bernoulli(options.kill_rate)) continue;
        std::lock_guard<std::mutex> lock(processes_mutex);
        const size_t victim = static_cast<size_t>(
            rng.UniformInt(static_cast<uint64_t>(options.num_workers)));
        WorkerProcess& process = processes[victim];
        if (!process.alive()) continue;
        if (!KillWorker(process, SIGKILL).ok()) continue;
        ReapWorker(process, /*blocking=*/true).ToString();
        {
          std::lock_guard<std::mutex> report_lock(report_mutex);
          ++report.kills;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.respawn_delay_ms));
        auto respawned = SpawnWorker(options.server_binary,
                                     endpoints[victim],
                                     worker_options[victim]);
        if (!respawned.ok()) continue;
        process = std::move(*respawned);
        if (WaitForWorkerReady(endpoints[victim], 5000).ok()) {
          std::lock_guard<std::mutex> report_lock(report_mutex);
          ++report.respawns;
        }
      }
    });
  }

  const auto load_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < options.num_client_threads; ++t) {
    clients.emplace_back([&, t] {
      ClusterClientOptions client_options;
      client_options.replication = options.replication;
      client_options.seed = SubtaskSeed(options.seed, 100 + t);
      client_options.transport.io_timeout_ms = 2000;
      client_options.transport.connect_timeout_ms = 500;
      client_options.transport.max_connect_attempts = 3;
      ClusterClient client(endpoints, client_options);
      // Registration may race an early kill or collide with other clients
      // on full shards; retry with a per-thread stagger so the herd
      // decorrelates instead of re-colliding in lockstep.
      StatusOr<ClusterClient::ObjectHandle> handle =
          UnavailableError("not yet registered");
      for (int attempt = 0; attempt < 10 && !handle.ok(); ++attempt) {
        handle = client.RegisterReplicated(graph);
        if (!handle.ok()) {
          client.HealthCheck().ToString();
          std::this_thread::sleep_for(
              std::chrono::milliseconds(25 * (attempt + 1) + 13 * t));
        }
      }
      if (!handle.ok()) {
        std::lock_guard<std::mutex> lock(report_mutex);
        client_failure = handle.status();
        return;
      }
      Rng rng(SubtaskSeed(options.seed, 1000 + t));
      int64_t ok = 0, unavailable = 0, exhausted = 0, other = 0, wrong = 0;
      std::vector<int64_t> local_latencies;
      local_latencies.reserve(
          static_cast<size_t>(options.batches_per_thread));
      for (int b = 0; b < options.batches_per_thread; ++b) {
        std::vector<VertexSet> sides;
        sides.reserve(static_cast<size_t>(options.batch_size));
        std::vector<CutQueryService::Query> reference_batch;
        for (int q = 0; q < options.batch_size; ++q) {
          sides.push_back(RandomSide(options.num_vertices, rng));
          reference_batch.push_back(
              CutQueryService::Query{reference_id, sides.back()});
        }
        const std::vector<double> expected =
            reference.AnswerBatch(reference_batch);
        const auto start = std::chrono::steady_clock::now();
        auto answer = client.AnswerBatch(*handle, sides);
        const auto elapsed_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (answer.ok()) {
          ++ok;
          local_latencies.push_back(elapsed_us);
          // Bitwise, not approximate: a survivor must answer with the
          // exact double the single-process oracle produces.
          for (size_t i = 0; i < expected.size(); ++i) {
            if (std::memcmp(&expected[i], &(*answer)[i],
                            sizeof(double)) != 0) {
              ++wrong;
            }
          }
        } else if (answer.status().code() == StatusCode::kUnavailable) {
          ++unavailable;
          client.HealthCheck().ToString();
          client.Repair().status().ToString();
        } else if (answer.status().code() ==
                   StatusCode::kResourceExhausted) {
          ++exhausted;  // backpressure: back off, never hammer
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        } else {
          ++other;
        }
        // Periodic repair keeps replication at R between failures, so a
        // later kill of the surviving replica still finds a spare.
        if ((b & 7) == 7) {
          client.HealthCheck().ToString();
          client.Repair().status().ToString();
        }
      }
      std::lock_guard<std::mutex> lock(report_mutex);
      report.batches_ok += ok;
      report.batches_unavailable += unavailable;
      report.batches_resource_exhausted += exhausted;
      report.batches_other_error += other;
      report.wrong_bits += wrong;
      report.reattaches += client.reattached_replicas();
      latencies_us.insert(latencies_us.end(), local_latencies.begin(),
                          local_latencies.end());
    });
  }
  for (std::thread& client : clients) client.join();
  const auto load_end = std::chrono::steady_clock::now();
  clients_done.store(true, std::memory_order_relaxed);
  if (killer.joinable()) killer.join();
  cleanup();
  if (!client_failure.ok()) return client_failure;

  report.elapsed_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(load_end -
                                                                load_start)
          .count();
  if (report.elapsed_seconds > 0) {
    report.qps = static_cast<double>(report.batches_ok *
                                     options.batch_size) /
                 report.elapsed_seconds;
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  report.latency_p50_us = PercentileUs(latencies_us, 0.5);
  report.latency_p99_us = PercentileUs(latencies_us, 0.99);
  return report;
}

}  // namespace dcs
