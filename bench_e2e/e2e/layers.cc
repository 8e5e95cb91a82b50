#include "e2e/layers.h"

#include <fcntl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>

#include "e2e/workloads.h"
#include "serve/cut_query_service.h"
#include "serve/wire.h"
#include "sketch/serialization.h"
#include "store/sketch_store.h"
#include "stream/agm_sketch.h"
#include "util/bitio.h"
#include "util/metrics.h"

namespace dcs::e2e {
namespace {

constexpr int kIoTimeoutMs = 10000;
// Registrations replayed, alternating the two query graphs (so graph c
// keeps object id c and shard c).
constexpr int kRegistrations = 16;
constexpr int kRestartReplays = 5;
// Updates the sketch replay applies serially and splits into shards.
constexpr int64_t kSketchSample = int64_t{1} << 16;

// The batches register and restart send: kWriteSides fresh sides over a
// write-sized graph.
constexpr QueryShape kWriteQuery{kWriteVertices, kWriteEdges, kWriteSides, 0,
                                 false};

// What a workload feeds the RPC layers. A workload without an RPC path of
// its own (ingest) replays query_hot's.
struct Plan {
  QueryShape query;
  int batches = 0;     // query batches per pass
  bool store = false;  // the worker persists registrations
};

// The batch counts below are for --seconds 10 or more; shorter runs (the
// smoke test) replay proportionally fewer.
int64_t Scaled(int64_t full, double seconds, int64_t floor) {
  return std::max(floor, static_cast<int64_t>(static_cast<double>(full) *
                                              std::min(1.0, seconds / 10)));
}

Plan PlanFor(const Options& options) {
  Plan plan{kQueryHot, 2000, false};
  if (options.workload == "query_cold") {
    plan = {kQueryCold, 300, false};
  } else if (options.workload == "register" ||
             options.workload == "restart") {
    plan = {kWriteQuery, 2000, true};
  }
  plan.batches =
      static_cast<int>(Scaled(plan.batches, options.seconds, 20));
  return plan;
}

// The untimed base runs of the residuals and overheads: the timed
// workload's own code, for a quarter of the window.
Options BaseOptions(const Options& options) {
  Options base = options;
  base.seconds = std::max(1.0, options.seconds / 4);
  return base;
}

int64_t CounterValue(const char* name) {
  return metrics::Registry::Get().GetCounter(name).value();
}

double MedianOf(const std::vector<double>& values) {
  return Percentile(values, 50);
}

// Everything a trace run reports through, and its verdicts.
struct Run {
  const Options& options;
  const std::string& dir;
  Trace& trace;
  RunResult& result;
  int64_t next_request = 1;

  int64_t NewRequest() { return next_request++; }
  // Counts one operation; a failure is a violation. Returns status.ok().
  bool Check(const Status& status, const std::string& what) {
    ++result.attempted;
    if (status.ok()) return true;
    ++result.failed;
    result.Violation(what + ": " + status.ToString());
    return false;
  }
  void Expect(bool condition, const std::string& what) {
    if (!condition) result.Violation(what);
  }
  // Counts a base run's operations and verdicts as this run's; returns
  // its end-to-end values, if it got that far.
  std::optional<EndToEnd> Absorb(const RunResult& base,
                                 const std::string& what) {
    result.attempted += base.attempted;
    result.failed += base.failed;
    for (const std::string& violation : base.violations) {
      result.Violation(what + ": " + violation);
    }
    return base.end_to_end;
  }
};

RpcRequest QueryRequest(int64_t object, int vertices,
                        std::vector<VertexSet> sides) {
  RpcRequest request;
  request.kind = RpcKind::kQueryBatch;
  request.object_id = object;
  request.num_vertices = vertices;
  request.sides = std::move(sides);
  return request;
}

RpcRequest RegisterRequest(const DirectedGraph& graph) {
  RpcRequest request;
  request.kind = RpcKind::kRegisterGraph;
  request.graph = graph;
  return request;
}

// The cost of one replayed RPC, by layer.
struct RpcCost {
  double root_us = 0;
  double wire_us = 0;
  double transport_us = 0;
  double execute_us = 0;
  int64_t bytes = 0;  // encoded request + response
};

// An in-process ClusterWorker reached over a socketpair. The benchmark
// plays both the client and the worker's connection thread on one thread,
// so the stages of a request run, and are timed, one after another.
class InProcessRpc {
 public:
  static StatusOr<std::unique_ptr<InProcessRpc>> Create(const std::string& dir,
                                                        bool store) {
    DCS_RETURN_IF_ERROR(MakeDirs(dir));
    DCS_ASSIGN_OR_RETURN(const Endpoint endpoint,
                         ParseEndpoint("unix:" + dir + "/inproc.sock"));
    ClusterWorkerOptions options;
    options.num_shards = kWorkerShards;
    if (store) options.store_dir = dir + "/inproc_store";
    auto rpc = std::unique_ptr<InProcessRpc>(new InProcessRpc);
    DCS_ASSIGN_OR_RETURN(rpc->worker_,
                         ClusterWorker::Create(endpoint, options));
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      return UnavailableError(std::string("socketpair: ") +
                              std::strerror(errno));
    }
    rpc->client_ = Connection(fds[0]);
    rpc->server_ = Connection(fds[1]);
    // A message is written whole before it is read, so the socket must
    // buffer the largest registration (about 100 KB at n = 256, m = 8192).
    for (const int fd : fds) {
      const int bytes = 4 << 20;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
    return rpc;
  }

  ClusterWorker& worker() { return *worker_; }

  // client encode -> send -> worker receive -> decode -> Execute -> encode
  // -> send -> client receive -> decode; `trace` null = untraced.
  StatusOr<RpcResponse> Call(const RpcRequest& request, Trace* trace,
                             int64_t id, const char* root_name,
                             RpcCost& cost) {
    const int64_t start = NowNs();
    const int64_t root = trace != nullptr ? trace->NewId() : 0;
    const Message sent =
        Stage(trace, "wire.encode_request", root, id, cost.wire_us,
              [&] { return EncodeRpcRequest(request); });
    DCS_RETURN_IF_ERROR(
        Stage(trace, "transport.send_request", root, id, cost.transport_us,
              [&] { return client_.Send(sent, kIoTimeoutMs); }));
    DCS_ASSIGN_OR_RETURN(
        const Message received,
        Stage(trace, "transport.receive_request", root, id, cost.transport_us,
              [&] { return server_.Receive(kIoTimeoutMs); }));
    DCS_ASSIGN_OR_RETURN(
        const RpcRequest decoded,
        Stage(trace, "wire.decode_request", root, id, cost.wire_us,
              [&] { return DecodeRpcRequest(received); }));
    const RpcResponse response =
        Stage(trace, "dispatch.execute", root, id, cost.execute_us,
              [&] { return worker_->Execute(decoded); });
    const Message reply =
        Stage(trace, "wire.encode_response", root, id, cost.wire_us,
              [&] { return EncodeRpcResponse(response); });
    DCS_RETURN_IF_ERROR(
        Stage(trace, "transport.send_response", root, id, cost.transport_us,
              [&] { return server_.Send(reply, kIoTimeoutMs); }));
    DCS_ASSIGN_OR_RETURN(
        const Message back,
        Stage(trace, "transport.receive_response", root, id,
              cost.transport_us,
              [&] { return client_.Receive(kIoTimeoutMs); }));
    DCS_ASSIGN_OR_RETURN(
        RpcResponse answer,
        Stage(trace, "wire.decode_response", root, id, cost.wire_us,
              [&] { return DecodeRpcResponse(back); }));
    const int64_t end = NowNs();
    if (trace != nullptr) trace->Record({root_name, start, end, root, 0, id});
    cost.root_us = static_cast<double>(end - start) / 1e3;
    cost.bytes = static_cast<int64_t>(sent.bytes.size() + reply.bytes.size());
    DCS_RETURN_IF_ERROR(answer.status);
    return answer;
  }

 private:
  InProcessRpc() = default;

  std::unique_ptr<ClusterWorker> worker_;
  Connection client_;
  Connection server_;
};

// The RPC layers: registrations and query batches replayed through an
// in-process worker, each compared with a single-process replica of the
// worker's shard that is fed the same requests in the same order, so each
// replayed batch meets the same cache state there.
Status ReplayRpc(Run& run, const Plan& plan, const QueryInputs& inputs) {
  const uint64_t seed = run.options.seed;
  // The residual's base: batches of the same shape through a real worker
  // process and two ClusterClients, untraced — the timed workload's loop.
  const std::optional<EndToEnd> real =
      run.Absorb(RunQuery(BaseOptions(run.options), plan.query,
                          run.dir + "/real"),
                 "real-cluster base");
  if (!real) return UnavailableError("the real-cluster base did not run");
  const double real_p50 = real->latency_p50_us;
  DCS_ASSIGN_OR_RETURN(auto rpc,
                       InProcessRpc::Create(run.dir + "/rpc", plan.store));
  std::vector<std::unique_ptr<CutQueryService>> replicas;
  for (int s = 0; s < kWorkerShards; ++s) {
    replicas.push_back(std::make_unique<CutQueryService>());
  }
  std::deque<DirectedGraph> replica_graphs;  // the replicas reference these
  // Registers on the replica of the shard that object `id` routes to and
  // returns its local id there.
  const auto replicate = [&](int64_t id, const DirectedGraph& graph) {
    replica_graphs.push_back(graph);
    return replicas[static_cast<size_t>(id % kWorkerShards)]->RegisterGraph(
        replica_graphs.back());
  };
  DCS_ASSIGN_OR_RETURN(auto put_store,
                       SketchStore::Open(run.dir + "/rpc/put_store"));

  // Registrations.
  std::vector<double> reg_wire, reg_transport, reg_dispatch, reg_serialize,
      reg_deserialize, reg_put, reg_bytes;
  for (int i = 0; i < kRegistrations; ++i) {
    const DirectedGraph& graph = inputs.graphs[static_cast<size_t>(i % 2)];
    const int64_t id = run.NewRequest();
    RpcCost cost;
    const StatusOr<RpcResponse> response = rpc->Call(
        RegisterRequest(graph), &run.trace, id, "rpc.register", cost);
    if (!run.Check(response.status(), "registration")) {
      return response.status();
    }
    run.Expect(response->object_id == i, "registration got an unexpected id");
    replicate(i, graph);
    double serialize_us = 0, deserialize_us = 0, put_us = 0;
    BitWriter writer;
    Stage(&run.trace, "serialization.serialize", 0, id, serialize_us, [&] {
      SerializeDirectedGraph(graph, writer);
      return 0;
    });
    BitReader reader(writer.bytes());
    const StatusOr<DirectedGraph> copy =
        Stage(&run.trace, "serialization.deserialize", 0, id, deserialize_us,
              [&] { return DeserializeDirectedGraph(reader); });
    run.Check(copy.status(), "deserialize");
    const Status put = Stage(&run.trace, "store.put", 0, id, put_us, [&] {
      return put_store->Put(i, StreamKind::kDirectedGraph, writer.bytes(),
                            writer.bit_count());
    });
    run.Check(put, "store put");
    reg_wire.push_back(cost.wire_us / 1e3);
    reg_transport.push_back(cost.transport_us / 1e3);
    // Execute serializes the graph, and with a store puts it, before
    // registering; what is left is dispatch.
    reg_dispatch.push_back(
        (cost.execute_us - serialize_us - (plan.store ? put_us : 0)) / 1e3);
    reg_serialize.push_back(serialize_us / 1e3);
    reg_deserialize.push_back(deserialize_us / 1e3);
    reg_put.push_back(put_us);
    reg_bytes.push_back(static_cast<double>(cost.bytes));
  }

  // The workload's warm-up, on the worker and the replicas alike.
  for (int c = 0; c < kClients; ++c) {
    if (plan.query.pool > 0) {
      const std::vector<VertexSet>& pool =
          inputs.pools[static_cast<size_t>(c)];
      run.Check(rpc->worker()
                    .Execute(QueryRequest(c, plan.query.vertices, pool))
                    .status,
                "warm-up batch");
      std::vector<CutQueryService::Query> queries;
      for (const VertexSet& side : pool) queries.push_back({0, side});
      replicas[static_cast<size_t>(c)]->AnswerBatch(queries);
    } else if (plan.query.fill) {
      const uint64_t fill_seed = InputSeed(seed, kFillSeed, c);
      const DirectedGraph filler = FillerGraph(fill_seed);
      const RpcResponse registered =
          rpc->worker().Execute(RegisterRequest(filler));
      run.Check(registered.status, "filler registration");
      const int64_t local = replicate(registered.object_id, filler);
      Rng rng(SubtaskSeed(fill_seed, 1));
      for (int done = 0; done < kFillSides; done += kFillBatch) {
        const std::vector<VertexSet> sides = FillerBatch(rng);
        run.Check(rpc->worker()
                      .Execute(QueryRequest(registered.object_id,
                                            kFillVertices, sides))
                      .status,
                  "fill batch");
        std::vector<CutQueryService::Query> queries;
        for (const VertexSet& side : sides) queries.push_back({local, side});
        replicas[static_cast<size_t>(c)]->AnswerBatch(queries);
      }
    }
  }

  // Two passes over fresh batches: untraced (the tracing overhead's base),
  // then traced — the workload's own first batches.
  std::vector<CutOracle> oracles;
  for (const DirectedGraph& graph : inputs.graphs) {
    oracles.push_back(ExactCutOracle(graph));
  }
  std::vector<double> untraced_root, root, wire, transport, dispatch, service,
      oracle_per_side, bytes;
  int64_t hits = 0, misses = 0, evictions = 0, wrong = 0, frame_bytes = 0;
  for (const bool traced : {false, true}) {
    std::vector<Rng> rngs;
    for (int c = 0; c < kClients; ++c) {
      rngs.emplace_back(InputSeed(seed, kBatchSeed, (traced ? 0 : 2) + c));
    }
    const int64_t frame_bytes_before =
        CounterValue("serve.transport.bytes_sent");
    for (int b = 0; b < plan.batches && !Interrupted(); ++b) {
      const int c = b % kClients;
      const size_t slot = static_cast<size_t>(c);
      std::vector<VertexSet> sides =
          NextBatch(plan.query, inputs, c, rngs[slot], nullptr);
      std::vector<CutQueryService::Query> queries;
      for (const VertexSet& side : sides) queries.push_back({0, side});
      const int64_t id = run.NewRequest();
      RpcCost cost;
      const StatusOr<RpcResponse> response =
          rpc->Call(QueryRequest(c, plan.query.vertices, std::move(sides)),
                    traced ? &run.trace : nullptr, id, "rpc.query", cost);
      if (!run.Check(response.status(), "query batch")) {
        return response.status();
      }
      const int64_t hits_before = CounterValue("serve.cache.hits");
      const int64_t misses_before = CounterValue("serve.cache.misses");
      const int64_t evictions_before = CounterValue("serve.cache.evictions");
      double service_us = 0;
      const std::vector<double> expected =
          Stage(traced ? &run.trace : nullptr, "service.answer_batch", 0, id,
                service_us,
                [&] { return replicas[slot]->AnswerBatch(queries); });
      wrong += CountDiffering(response->values, expected);
      if (!traced) {
        untraced_root.push_back(cost.root_us);
        continue;
      }
      hits += CounterValue("serve.cache.hits") - hits_before;
      misses += CounterValue("serve.cache.misses") - misses_before;
      evictions += CounterValue("serve.cache.evictions") - evictions_before;
      double oracle_us = 0;
      Stage(&run.trace, "oracle.cut", 0, id, oracle_us, [&] {
        double sum = 0;
        for (const CutQueryService::Query& query : queries) {
          sum += oracles[slot](query.side);
        }
        return sum;
      });
      root.push_back(cost.root_us);
      wire.push_back(cost.wire_us);
      transport.push_back(cost.transport_us);
      dispatch.push_back(cost.execute_us - service_us);
      service.push_back(service_us);
      oracle_per_side.push_back(oracle_us /
                                static_cast<double>(queries.size()));
      bytes.push_back(static_cast<double>(cost.bytes));
    }
    if (traced) {
      frame_bytes =
          CounterValue("serve.transport.bytes_sent") - frame_bytes_before;
    }
  }
  run.Expect(wrong == 0, std::to_string(wrong) +
                             " replayed answers differ from the "
                             "single-process CutQueryService");
  if (root.empty()) return UnavailableError("no query batch was replayed");

  RunResult& result = run.result;
  const double batches = static_cast<double>(root.size());
  const double queries = static_cast<double>(hits + misses);
  result.Add("wire.query_codec_us", MedianOf(wire), "us");
  result.Add("wire.query_bytes", MedianOf(bytes), "bytes");
  result.Add("transport.query_us", MedianOf(transport), "us");
  result.Add("transport.bytes_per_query",
             static_cast<double>(frame_bytes) / batches, "bytes");
  result.Add("dispatch.query_us", MedianOf(dispatch), "us");
  result.Add("service.batch_us", MedianOf(service), "us");
  result.Add("cache.hit_rate", static_cast<double>(hits) / queries,
             "fraction");
  result.Add("cache.evictions_per_query",
             static_cast<double>(evictions) / queries, "fraction");
  result.Add("oracle.query_us", MedianOf(oracle_per_side), "us");
  result.Add("rpc.unattributed_us",
             real_p50 - (MedianOf(wire) + MedianOf(transport) +
                         MedianOf(dispatch) + MedianOf(service)),
             "us");
  result.Add("trace.rpc_overhead",
             MedianOf(root) / MedianOf(untraced_root) - 1, "fraction");
  result.Add("wire.register_codec_ms", MedianOf(reg_wire), "ms");
  result.Add("wire.register_bytes", MedianOf(reg_bytes), "bytes");
  result.Add("transport.register_ms", MedianOf(reg_transport), "ms");
  result.Add("dispatch.register_ms", MedianOf(reg_dispatch), "ms");
  result.Add("serialization.serialize_ms", MedianOf(reg_serialize), "ms");
  result.Add("serialization.deserialize_ms", MedianOf(reg_deserialize), "ms");
  result.Add("store.put_us", MedianOf(reg_put), "us");
  result.details.Set("rpc_real_p50_us", real_p50);
  result.details.Set("rpc_batches", static_cast<int64_t>(batches));
  return OkStatus();
}

// The restart layers, always on the restart workload's objects in a real
// store-backed worker, SIGKILLed kRestartReplays times. Each time the
// benchmark opens and loads a copy of the killed worker's store, creates an
// in-process worker over another copy, then recovers every client through
// the respawned worker exactly as the restart workload does.
Status ReplayRestarts(Run& run) {
  const OwnedObjects owned = MakeOwnedObjects(run.options.seed);
  int64_t envelope_bytes = 0;
  int64_t stored_objects = 0;
  for (const std::vector<WriteObject>& objects : owned.objects) {
    for (const WriteObject& object : objects) {
      BitWriter writer;
      SerializeDirectedGraph(object.graph, writer);
      envelope_bytes += static_cast<int64_t>(writer.bytes().size());
      ++stored_objects;
    }
  }
  const std::string dir = run.dir + "/restart";
  const std::string store = dir + "/store";
  DCS_ASSIGN_OR_RETURN(auto cluster,
                       StartOwnedCluster(run.options, dir, owned));

  std::vector<double> open_ms, load_ms, create_ms, ready_ms, repair_ms,
      answers_ms, reattached;
  double bytes_per_user_byte = 0;
  std::vector<Recovery> recoveries;
  for (int r = 0; r < kRestartReplays && !Interrupted(); ++r) {
    const int64_t id = run.NewRequest();
    const int64_t root = run.trace.NewId();
    const int64_t start = NowNs();
    DCS_RETURN_IF_ERROR(cluster->worker->Kill());
    bytes_per_user_byte = static_cast<double>(DirBytes(store)) /
                          static_cast<double>(envelope_bytes);
    const std::string open_copy = dir + "/open_copy";
    const std::string create_copy = dir + "/create_copy";
    DCS_RETURN_IF_ERROR(CopyDir(store, open_copy));
    DCS_RETURN_IF_ERROR(CopyDir(store, create_copy));
    double open_us = 0, load_us = 0, create_us = 0;
    {
      auto opened = Stage(&run.trace, "store.open", root, id, open_us,
                          [&] { return SketchStore::Open(open_copy); });
      if (!run.Check(opened.status(), "store open")) return opened.status();
      const Status loaded = Stage(&run.trace, "store.load", root, id, load_us,
                                  [&]() -> Status {
        int64_t count = 0;
        for (const int64_t object : (*opened)->ListObjects()) {
          DCS_ASSIGN_OR_RETURN(const StoredObject stored,
                               (*opened)->Get(object));
          BitReader reader(stored.bytes);
          DCS_RETURN_IF_ERROR(DeserializeDirectedGraph(reader).status());
          ++count;
        }
        return count == stored_objects
                   ? OkStatus()
                   : DataLossError("the store lost objects");
      });
      run.Check(loaded, "store load");
    }
    {
      DCS_ASSIGN_OR_RETURN(const Endpoint endpoint,
                           ParseEndpoint("unix:" + dir + "/create.sock"));
      ClusterWorkerOptions options;
      options.num_shards = kWorkerShards;
      options.store_dir = create_copy;
      auto created =
          Stage(&run.trace, "worker.create", root, id, create_us,
                [&] { return ClusterWorker::Create(endpoint, options); });
      run.Check(created.status(), "worker create");
    }
    std::error_code ignored;
    std::filesystem::remove_all(open_copy, ignored);
    std::filesystem::remove_all(create_copy, ignored);
    const Status recovered =
        Recover(*cluster, owned, &run.trace, root, id, recoveries);
    run.trace.Record({"restart.replay", start, NowNs(), root, 0, id});
    if (!run.Check(recovered, "restart")) return OkStatus();
    open_ms.push_back(open_us / 1e3);
    load_ms.push_back(load_us / 1e3);
    create_ms.push_back(create_us / 1e3);
    double total_reattached = 0;
    for (const Recovery& recovery : recoveries) {
      ready_ms.push_back(recovery.ready_ms);
      repair_ms.push_back(recovery.repair_us / 1e3);
      answers_ms.push_back(recovery.answers_us / 1e3);
      total_reattached += static_cast<double>(recovery.reattached);
    }
    reattached.push_back(total_reattached);
  }
  RunResult& result = run.result;
  result.Add("store.open_ms", MedianOf(open_ms), "ms");
  result.Add("store.load_ms", MedianOf(load_ms), "ms");
  result.Add("store.bytes_per_user_byte", bytes_per_user_byte, "ratio");
  result.Add("worker.create_ms", MedianOf(create_ms), "ms");
  result.Add("worker.spawn_to_ready_ms", MedianOf(ready_ms), "ms");
  result.Add("client.repair_ms", MedianOf(repair_ms), "ms");
  result.Add("client.first_answers_ms", MedianOf(answers_ms), "ms");
  result.Add("client.reattached", MedianOf(reattached), "count");
  return OkStatus();
}

// The ingest and sketch layers, always on ingest's inputs: the ingest
// workload's own pass untraced (the base) and again with every Push and
// Barrier timed, then the sketch operations the ingestor is built from,
// run serially.
Status ReplayIngest(Run& run) {
  const IngestShape& shape = kIngest;
  const uint64_t seed = run.options.seed;
  const Options base_options = BaseOptions(run.options);
  const std::optional<EndToEnd> base =
      run.Absorb(RunIngest(base_options), "untraced ingest base");
  if (!base) return UnavailableError("the untraced ingest base did not run");
  // Producer wall time per update, untraced.
  const double untraced_ns = shape.producers * 1e9 / base->throughput_per_s;

  const std::vector<std::vector<EdgeUpdate>> streams =
      MakeIngestStreams(shape, seed);
  const StreamIngestorOptions options = IngestOptions(shape, seed);
  std::vector<double> push_ns, barrier_ms;
  int64_t pushed_total = 0;
  double traced_seconds = 0;
  {
    StreamIngestor ingestor(shape.vertices, options);
    const Window window = Window::Open(base_options.seconds);
    const IngestTallies tallies = DriveIngest(
        ingestor, shape, streams, window, &run.trace, run.NewRequest());
    traced_seconds = SecondsBetween(window.start, window.deadline);
    const auto count = [&run](const Tally& tally) {
      run.result.attempted += tally.attempted;
      run.result.failed += tally.failed;
      if (!tally.first_error.empty()) run.result.Violation(tally.first_error);
    };
    std::vector<int64_t> pushed;
    for (const Tally& tally : tallies.producers) {
      count(tally);
      pushed.push_back(tally.work);
      pushed_total += tally.work;
      for (const double us : tally.latencies_us) push_ns.push_back(us * 1e3);
    }
    count(tallies.sealer);
    for (const double us : tallies.sealer.latencies_us) {
      barrier_ms.push_back(us / 1e3);
    }
    run.Expect(ingestor.snapshot()->digest ==
                   ReferenceDigest(shape, seed, streams, pushed),
               "traced ingest digest differs from the serial reference");
  }
  if (push_ns.empty()) return UnavailableError("no update was pushed");
  const double traced_ns = shape.producers * traced_seconds * 1e9 /
                           static_cast<double>(pushed_total);

  // The sketch layer: serial AddEdge/RemoveEdge, the seal's merge of one
  // sketch per ingest shard, and the forest extraction.
  const std::vector<EdgeUpdate>& stream = streams[0];
  const int64_t id = run.NewRequest();
  const AgmConnectivitySketch empty(shape.vertices, options.rounds,
                                    options.seed);
  AgmConnectivitySketch serial = empty;
  double apply_us = 0, merge_us = 0, forest_us = 0;
  Stage(&run.trace, "sketch.apply", 0, id, apply_us, [&] {
    for (int64_t i = 0; i < kSketchSample; ++i) {
      ApplyUpdate(serial, stream[static_cast<size_t>(i)]);
    }
    return 0;
  });
  std::vector<AgmConnectivitySketch> shards(
      static_cast<size_t>(shape.shards), empty);
  for (int64_t i = 0; i < kSketchSample; ++i) {
    const EdgeUpdate& update = stream[static_cast<size_t>(i)];
    ApplyUpdate(shards[static_cast<size_t>(std::min(update.u, update.v) %
                                           shape.shards)],
                update);
  }
  AgmConnectivitySketch merged = empty;
  const Status merge = Stage(&run.trace, "sketch.merge", 0, id, merge_us,
                             [&]() -> Status {
    for (const AgmConnectivitySketch& shard : shards) {
      DCS_RETURN_IF_ERROR(merged.TryMergeFrom(shard));
    }
    return OkStatus();
  });
  run.Check(merge, "sketch merge");
  run.Expect(merged.Digest() == serial.Digest(),
             "merged shard sketches differ from the serial sketch");
  Stage(&run.trace, "sketch.forest", 0, id, forest_us,
        [&] { return merged.SpanningForest(); });

  RunResult& result = run.result;
  const TailSummary push = Summarize(push_ns, 99.9);
  double traced_push_mean = 0;
  for (const double ns : push_ns) traced_push_mean += ns;
  traced_push_mean /= static_cast<double>(push_ns.size());
  result.Add("ingest.push_ns_p50", push.median, "ns");
  if (push.tail) {
    result.Add("ingest.push_ns_p999", *push.tail, "ns");
  } else {
    result.problems.push_back("ingest.push_ns_p999: " + push.reason);
  }
  result.Add("ingest.barrier_ms", MedianOf(barrier_ms), "ms");
  result.Add("ingest.unattributed_ns", untraced_ns - traced_push_mean, "ns");
  result.Add("trace.ingest_overhead", traced_ns / untraced_ns - 1,
             "fraction");
  result.Add("sketch.apply_ns",
             apply_us * 1e3 / static_cast<double>(kSketchSample), "ns");
  result.Add("sketch.merge_ms", merge_us / 1e3, "ms");
  result.Add("sketch.forest_ms", forest_us / 1e3, "ms");
  return OkStatus();
}

}  // namespace

RunResult RunLayers(const Options& options, const std::string& dir,
                    Trace& trace) {
  RunResult result;
  Run run{options, dir, trace, result};
  const Plan plan = PlanFor(options);
  const QueryInputs inputs = MakeQueryInputs(plan.query, options.seed);
  const Status rpc = ReplayRpc(run, plan, inputs);
  if (!rpc.ok()) result.Violation("rpc replay: " + rpc.ToString());
  const Status restarts = ReplayRestarts(run);
  if (!restarts.ok()) {
    result.Violation("restart replay: " + restarts.ToString());
  }
  const Status ingest = ReplayIngest(run);
  if (!ingest.ok()) result.Violation("ingest replay: " + ingest.ToString());
  return result;
}

}  // namespace dcs::e2e
