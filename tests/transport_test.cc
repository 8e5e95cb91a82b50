// Socket transport + multi-process serving tier tests (DESIGN.md §14):
// endpoint parsing, loopback framing round trips, deadlines, backoff
// connects, per-shard admission control, worker dispatch over real
// sockets, replication failover, token-mismatch repair, client handle
// validation, the stop wake, and posix_spawn'd dcs_server worker
// processes.

#include <signal.h>
#include <stdlib.h>
#include <sys/eventfd.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "graph/digraph.h"
#include "serve/cluster.h"
#include "serve/cluster_client.h"
#include "serve/cut_query_service.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "serve/worker_process.h"
#include "sketch/serialization.h"
#include "store/sketch_store.h"
#include "util/bitio.h"
#include "util/metrics.h"
#include "util/random.h"

namespace dcs {
namespace {

Endpoint Loopback() {
  auto endpoint = ParseEndpoint("tcp:127.0.0.1:0");
  EXPECT_TRUE(endpoint.ok());
  return *endpoint;
}

Message RandomMessage(int64_t bits, uint64_t seed) {
  Rng rng(seed);
  BitWriter writer;
  for (int64_t i = 0; i < bits; ++i) writer.WriteBit(rng.Bernoulli(0.5));
  return SealMessage(writer);
}

DirectedGraph TestGraph(int n, int m, uint64_t seed) {
  Rng rng(seed);
  DirectedGraph graph(n);
  for (int e = 0; e < m; ++e) {
    const int u = static_cast<int>(rng.UniformInt(n));
    int v = (u + 1) % n;
    if (rng.Bernoulli(0.5)) v = (u + 2) % n;
    graph.AddEdge(u, v, 0.25 + rng.UniformDouble());
  }
  return graph;
}

std::vector<VertexSet> RandomSides(int n, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexSet> sides;
  for (int i = 0; i < count; ++i) {
    VertexSet side(static_cast<size_t>(n), 0);
    for (auto& bit : side) bit = rng.Bernoulli(0.5) ? 1 : 0;
    sides.push_back(std::move(side));
  }
  return sides;
}

// An in-process worker with its Serve() loop on a background thread.
struct ServingWorker {
  std::unique_ptr<ClusterWorker> worker;
  std::thread thread;

  ServingWorker() = default;
  ServingWorker(ServingWorker&&) = default;
  ServingWorker& operator=(ServingWorker&& other) {
    Stop();
    worker = std::move(other.worker);
    thread = std::move(other.thread);
    return *this;
  }
  void Stop() {
    if (worker != nullptr) worker->RequestStop();
    if (thread.joinable()) thread.join();
  }
  ~ServingWorker() { Stop(); }
};

ServingWorker StartWorker(ClusterWorkerOptions options = {},
                          const std::string& spec = "tcp:127.0.0.1:0") {
  auto endpoint = ParseEndpoint(spec);
  EXPECT_TRUE(endpoint.ok());
  auto created = ClusterWorker::Create(*endpoint, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  ServingWorker serving;
  serving.worker = std::move(*created);
  ClusterWorker* raw = serving.worker.get();
  serving.thread = std::thread([raw] {
    const Status status = raw->Serve();
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  return serving;
}

// A connected loopback client/server pair; both invalid on failure.
struct LoopbackPair {
  Connection client;
  Connection server;
};

LoopbackPair ConnectLoopback() {
  LoopbackPair pair;
  auto listener = Listener::Listen(Loopback());
  if (!listener.ok()) return pair;
  auto client = Connect(listener->local_endpoint(), 1000);
  auto server = listener->Accept(1000);
  if (client.ok() && server.ok()) {
    pair.client = std::move(*client);
    pair.server = std::move(*server);
  }
  return pair;
}

int64_t CounterValue(const char* name) {
  return metrics::Registry::Get().GetCounter(name).value();
}

// Fast-failing client transport so failover tests don't sit out the full
// production backoff schedule.
TransportOptions FastTransport() {
  TransportOptions transport;
  transport.connect_timeout_ms = 500;
  transport.io_timeout_ms = 2000;
  transport.reconnect_base_ms = 1;
  transport.reconnect_cap_ms = 4;
  transport.max_connect_attempts = 2;
  return transport;
}

TEST(EndpointTest, ParsesAndRoundTrips) {
  auto unix_endpoint = ParseEndpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_endpoint.ok());
  EXPECT_TRUE(unix_endpoint->is_unix);
  EXPECT_EQ(unix_endpoint->path, "/tmp/x.sock");
  EXPECT_EQ(unix_endpoint->ToSpec(), "unix:/tmp/x.sock");

  auto tcp_endpoint = ParseEndpoint("tcp:127.0.0.1:8080");
  ASSERT_TRUE(tcp_endpoint.ok());
  EXPECT_FALSE(tcp_endpoint->is_unix);
  EXPECT_EQ(tcp_endpoint->host, "127.0.0.1");
  EXPECT_EQ(tcp_endpoint->port, 8080);
  EXPECT_EQ(tcp_endpoint->ToSpec(), "tcp:127.0.0.1:8080");
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "unix:", "tcp:127.0.0.1", "tcp:127.0.0.1:notaport",
        "tcp:127.0.0.1:70000", "tcp::80", "http:example.com:80",
        "tcp:127.0.0.1:-1"}) {
    auto endpoint = ParseEndpoint(bad);
    EXPECT_FALSE(endpoint.ok()) << bad;
    EXPECT_EQ(endpoint.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(TransportTest, LoopbackRoundTripBothDirections) {
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok());
  auto client = Connect(listener->local_endpoint(), 1000);
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept(1000);
  ASSERT_TRUE(server.ok());

  const Message request = RandomMessage(777, 1);
  ASSERT_TRUE(client->Send(request, 1000).ok());
  auto received = server->Receive(1000);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->bit_count, request.bit_count);
  EXPECT_EQ(received->bytes, request.bytes);

  const Message response = RandomMessage(13, 2);
  ASSERT_TRUE(server->Send(response, 1000).ok());
  auto echoed = client->Receive(1000);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed->bytes, response.bytes);
}

TEST(TransportTest, MultiChunkMessageIsBitExact) {
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok());
  auto client = Connect(listener->local_endpoint(), 1000);
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept(1000);
  ASSERT_TRUE(server.ok());

  // Large enough that Receive reads the body in several growing steps,
  // with a ragged final byte.
  const Message big = RandomMessage((int64_t{1} << 15) * 3 + 4097, 3);
  std::thread sender(
      [&] { EXPECT_TRUE(client->Send(big, 5000).ok()); });
  auto received = server->Receive(5000);
  sender.join();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->bit_count, big.bit_count);
  EXPECT_EQ(received->bytes, big.bytes);
}

TEST(TransportTest, EveryTailLengthRoundTrips) {
  // The stop bit lands in every position of the last byte, including bit 0
  // of a byte of its own when the message ends on a byte boundary.
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok());
  auto client = Connect(listener->local_endpoint(), 1000);
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept(1000);
  ASSERT_TRUE(server.ok());
  for (int64_t bits = 0; bits <= 24; ++bits) {
    const Message message = RandomMessage(bits, 100 + bits);
    // The same message with every pad bit of its last byte set: Send
    // frames only the message's bits.
    Message dirty = message;
    if (bits % 8 != 0) {
      dirty.bytes.back() |= static_cast<uint8_t>(0xFF << (bits % 8));
    }
    for (const Message& sent : {message, dirty}) {
      ASSERT_TRUE(client->Send(sent, 1000).ok());
      auto received = server->Receive(1000);
      ASSERT_TRUE(received.ok()) << received.status().ToString();
      EXPECT_EQ(received->bit_count, message.bit_count);
      EXPECT_EQ(received->bytes, message.bytes) << bits << " bits";
    }
  }
}

TEST(TransportTest, ReceiveDeadlineIsMarkedAsTransportDeadline) {
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok());
  auto client = Connect(listener->local_endpoint(), 1000);
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept(1000);
  ASSERT_TRUE(server.ok());

  auto received = server->Receive(50);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(received.status().message().rfind("transport deadline:", 0), 0u)
      << received.status().ToString();
}

TEST(TransportTest, PeerCloseIsUnavailable) {
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok());
  auto client = Connect(listener->local_endpoint(), 1000);
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept(1000);
  ASSERT_TRUE(server.ok());

  client->Close();
  auto received = server->Receive(1000);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
}

TEST(TransportTest, ImmediateAndDelayedFramesArriveByteIdentical) {
  // The first frame lands within a read-wait's spin; the second, 5 ms
  // later, after the wait has parked in poll().
  LoopbackPair pair = ConnectLoopback();
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  const Message now = RandomMessage(1000, 21);
  const Message later = RandomMessage(333, 22);
  std::thread sender([&] {
    EXPECT_TRUE(pair.client.Send(now, 1000).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(pair.client.Send(later, 1000).ok());
  });
  for (const Message* sent : {&now, &later}) {
    auto received = pair.server.Receive(2000);
    EXPECT_TRUE(received.ok()) << received.status().ToString();
    if (!received.ok()) break;
    EXPECT_EQ(received->bit_count, sent->bit_count);
    EXPECT_EQ(received->bytes, sent->bytes);
  }
  sender.join();
}

TEST(TransportTest, SpinNeverExtendsAReceiveDeadline) {
  LoopbackPair pair = ConnectLoopback();
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  const auto start = std::chrono::steady_clock::now();
  auto received = pair.server.Receive(1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(received.status().message().rfind("transport deadline:", 0), 0u)
      << received.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(TransportTest, PeerClosingDuringTheSpinIsUnavailable) {
  // A fresh connection spins on its first wait; the peer closes a few
  // microseconds in, within the spin budget on most runs.
  LoopbackPair pair = ConnectLoopback();
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(10));
    pair.client.Close();
  });
  const auto start = std::chrono::steady_clock::now();
  auto received = pair.server.Receive(5000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  closer.join();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(received.status().message(), "connection closed");
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
}

TEST(TransportTest, WaitLongerThanTheSpinBudgetMakesTheNextOnePark) {
#if !DCS_METRICS_ENABLED
  GTEST_SKIP() << "library compiled with DCS_ENABLE_METRICS=OFF";
#endif
  LoopbackPair pair = ConnectLoopback();
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  // A fresh connection spins on its first wait (given a second CPU); that
  // wait lasts 5 ms, so the second parks at once.
  const bool spins = std::thread::hardware_concurrency() > 1;
  const Message message = RandomMessage(64, 23);
  for (int wait = 0; wait < 2; ++wait) {
    const int64_t spun = CounterValue("serve.transport.waits_spun");
    const int64_t parked = CounterValue("serve.transport.waits_parked");
    std::thread sender([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_TRUE(pair.client.Send(message, 1000).ok());
    });
    auto received = pair.server.Receive(2000);
    sender.join();
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    const bool expect_spin = spins && wait == 0;
    EXPECT_EQ(CounterValue("serve.transport.waits_spun") - spun,
              expect_spin ? 1 : 0)
        << "wait " << wait;
    EXPECT_EQ(CounterValue("serve.transport.waits_parked") - parked,
              expect_spin ? 0 : 1)
        << "wait " << wait;
  }
}

TEST(TransportTest, WaitReadableTimesOutOnAnIdleConnection) {
  LoopbackPair pair = ConnectLoopback();
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  // The worker's idle wait: it must return within its timeout, so the
  // handler loops instead of parking for good.
  const auto start = std::chrono::steady_clock::now();
  const Status idle = pair.server.WaitReadable(50);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(idle.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(idle.message().rfind("transport deadline:", 0), 0u)
      << idle.ToString();
  EXPECT_GE(elapsed, std::chrono::milliseconds(49));
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));

  // Readable once a frame is pending, and the frame is still all there.
  const Message message = RandomMessage(200, 24);
  ASSERT_TRUE(pair.client.Send(message, 1000).ok());
  EXPECT_TRUE(pair.server.WaitReadable(1000).ok());
  auto received = pair.server.Receive(1000);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->bytes, message.bytes);
}

TEST(TransportTest, WakeFdEndsAParkedReadWaitAndAnAcceptAtOnce) {
  // The worker's stop path: a wait given a wake fd returns kUnavailable as
  // soon as the fd turns readable, long before its own timeout.
  const int wake = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  ASSERT_GE(wake, 0);
  LoopbackPair pair = ConnectLoopback();
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  // An unwoken wake fd changes nothing: a pending frame is readable.
  const Message message = RandomMessage(100, 25);
  ASSERT_TRUE(pair.client.Send(message, 1000).ok());
  EXPECT_TRUE(pair.server.WaitReadable(1000, wake).ok());
  ASSERT_TRUE(pair.server.Receive(1000).ok());

  const auto start = std::chrono::steady_clock::now();
  std::thread waker([wake] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t one = 1;
    EXPECT_EQ(::write(wake, &one, sizeof(one)),
              static_cast<ssize_t>(sizeof(one)));
  });
  const Status woken = pair.server.WaitReadable(60000, wake);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  waker.join();
  EXPECT_EQ(woken.code(), StatusCode::kUnavailable) << woken.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(30));

  // The fd stays readable: a later accept returns at once, and a wake
  // wins over a connection that is also pending.
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto client = Connect(listener->local_endpoint(), 1000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto accept_start = std::chrono::steady_clock::now();
  auto accepted = listener->Accept(60000, wake);
  EXPECT_EQ(accepted.status().code(), StatusCode::kUnavailable)
      << accepted.status().ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - accept_start,
            std::chrono::seconds(30));
  // Without the wake fd the same listener still accepts.
  EXPECT_TRUE(listener->Accept(1000).ok());
  ::close(wake);
}

TEST(WorkerProcessTest, SpawnFailuresAreNotFoundStatuses) {
  char dir_template[] = "/tmp/dcs_worker_spawn_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  auto endpoint = ParseEndpoint("unix:" + dir + "/w.sock");
  ASSERT_TRUE(endpoint.ok());
  // Not executable: a plain file without the exec bit. Fails to exec: a
  // file with the bit that is neither ELF nor a script, so posix_spawn
  // itself returns the exec error.
  const std::string plain = dir + "/plain";
  const std::string garbage = dir + "/garbage";
  for (const std::string& path : {plain, garbage}) {
    std::ofstream(path) << "not a program\n";
  }
  ASSERT_EQ(::chmod(garbage.c_str(), 0755), 0);
  for (const std::string& binary :
       {dir + "/missing", plain, garbage}) {
    const auto spawned = SpawnWorker(binary, *endpoint, ClusterWorkerOptions{});
    ASSERT_FALSE(spawned.ok()) << binary;
    EXPECT_EQ(spawned.status().code(), StatusCode::kNotFound)
        << binary << ": " << spawned.status().ToString();
    EXPECT_NE(spawned.status().message().find(binary), std::string::npos)
        << spawned.status().ToString();
  }
  const std::string command = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(command.c_str()), 0);
}

TEST(TransportTest, ConnectWithBackoffFailsAfterCappedAttempts) {
  // Bind then close to find a port that refuses connections.
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok());
  const Endpoint vacated = listener->local_endpoint();
  listener->Close();

  TransportOptions options = FastTransport();
  options.max_connect_attempts = 3;
  Rng rng(7);
  auto connection = ConnectWithBackoff(vacated, options, rng);
  ASSERT_FALSE(connection.ok());
  EXPECT_EQ(connection.status().code(), StatusCode::kUnavailable);
}

TEST(TransportTest, ConnectWithBackoffSucceedsOnLiveListener) {
  auto listener = Listener::Listen(Loopback());
  ASSERT_TRUE(listener.ok());
  Rng rng(7);
  auto connection =
      ConnectWithBackoff(listener->local_endpoint(), FastTransport(), rng);
  EXPECT_TRUE(connection.ok()) << connection.status().ToString();
}

TEST(ClusterWorkerTest, PingCarriesNonzeroToken) {
  ServingWorker serving = StartWorker();
  auto connection = Connect(serving.worker->endpoint(), 1000);
  ASSERT_TRUE(connection.ok());
  RpcRequest ping;
  ping.kind = RpcKind::kPing;
  ASSERT_TRUE(connection->Send(EncodeRpcRequest(ping), 1000).ok());
  auto reply = connection->Receive(2000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = DecodeRpcResponse(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok());
  EXPECT_NE(response->server_token, 0u);
  EXPECT_EQ(response->server_token, serving.worker->token());
}

TEST(ClusterWorkerTest, FlippedRequestBodyClosesTheConnection) {
  // The RPC envelope is the only checksum on the socket. A well-framed
  // request whose body has one flipped payload bit must never reach
  // Execute: the worker drops the connection instead of answering.
  ServingWorker serving = StartWorker();
  const RpcRequest reg = RegisterGraphRequest(TestGraph(12, 40, 21));
  const RpcResponse registered = serving.worker->Execute(reg);
  ASSERT_TRUE(registered.status.ok());
  RpcRequest query;
  query.kind = RpcKind::kQueryBatch;
  query.object_id = registered.object_id;
  query.num_vertices = 12;
  query.sides = RandomSides(12, 4, 22);
  for (const RpcRequest& request : {reg, query}) {
    Message flipped = EncodeRpcRequest(request);
    const int64_t last = flipped.bit_count - 1;  // a payload bit
    flipped.bytes[static_cast<size_t>(last / 8)] ^=
        static_cast<uint8_t>(1u << (last % 8));
    ASSERT_FALSE(DecodeRpcRequest(flipped).ok());

    auto connection = Connect(serving.worker->endpoint(), 1000);
    ASSERT_TRUE(connection.ok());
    ASSERT_TRUE(connection->Send(flipped, 1000).ok());
    const auto reply = connection->Receive(2000);
    ASSERT_FALSE(reply.ok()) << "a response frame arrived";
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
        << reply.status().ToString();
    // Closed before the first byte of any reply.
    EXPECT_EQ(reply.status().message(), "connection closed");
    EXPECT_EQ(serving.worker->num_registered(), 1);
  }
}

// The process's virtual size in bytes, from /proc/self/status (VmSize).
int64_t VirtualSizeBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoll(line.substr(7)) * 1024;  // reported in kB
    }
  }
  ADD_FAILURE() << "no VmSize in /proc/self/status";
  return 0;
}

TEST(ClusterWorkerTest, FinishedConnectionThreadsAreReaped) {
  // Each accepted connection gets a handler thread. A worker that kept
  // every exited handler until drain would keep its stack mapped too —
  // 200 short-lived clients would cost well over a gigabyte of address
  // space. Reaping finished handlers on accept keeps it flat.
  ServingWorker serving = StartWorker();
  RpcRequest ping;
  ping.kind = RpcKind::kPing;
  auto ping_on = [&](Connection& connection) {
    ASSERT_TRUE(connection.Send(EncodeRpcRequest(ping), 1000).ok());
    auto reply = connection.Receive(2000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  };
  auto connect = [&] {
    auto connection = Connect(serving.worker->endpoint(), 1000);
    EXPECT_TRUE(connection.ok()) << connection.status().ToString();
    return std::move(*connection);
  };
  // Warm up with a few handlers alive at once, so the allocator arenas
  // overlapping handler threads use already exist at the baseline (each
  // arena reserves 64 MB of address space).
  {
    std::vector<Connection> concurrent;
    for (int i = 0; i < 4; ++i) concurrent.push_back(connect());
    for (Connection& connection : concurrent) ping_on(connection);
  }
  for (int i = 0; i < 8; ++i) {
    Connection connection = connect();
    ping_on(connection);
  }
  const int64_t before = VirtualSizeBytes();
  for (int i = 0; i < 200; ++i) {
    Connection connection = connect();
    ping_on(connection);
  }
  const int64_t after = VirtualSizeBytes();
  EXPECT_LT(after - before, int64_t{64} << 20)
      << "VmSize grew from " << before << " to " << after << " bytes";
}

TEST(ClusterWorkerTest, RegisterAndQueryOverSocketIsBitIdentical) {
  ServingWorker serving = StartWorker();
  const DirectedGraph graph = TestGraph(24, 140, 11);
  const std::vector<VertexSet> sides = RandomSides(24, 9, 12);

  CutQueryService reference;
  const auto reference_id = reference.RegisterGraph(graph);
  std::vector<CutQueryService::Query> reference_batch;
  for (const VertexSet& side : sides) {
    reference_batch.push_back(CutQueryService::Query{reference_id, side});
  }
  const std::vector<double> expected = reference.AnswerBatch(reference_batch);

  auto connection = Connect(serving.worker->endpoint(), 1000);
  ASSERT_TRUE(connection.ok());
  const RpcRequest reg = RegisterGraphRequest(graph);
  ASSERT_TRUE(connection->Send(EncodeRpcRequest(reg), 2000).ok());
  auto reg_reply = connection->Receive(2000);
  ASSERT_TRUE(reg_reply.ok());
  auto reg_response = DecodeRpcResponse(*reg_reply);
  ASSERT_TRUE(reg_response.ok());
  ASSERT_TRUE(reg_response->status.ok()) << reg_response->status.ToString();

  RpcRequest query;
  query.kind = RpcKind::kQueryBatch;
  query.object_id = reg_response->object_id;
  query.num_vertices = graph.num_vertices();
  query.sides = sides;
  ASSERT_TRUE(connection->Send(EncodeRpcRequest(query), 2000).ok());
  auto reply = connection->Receive(2000);
  ASSERT_TRUE(reply.ok());
  auto response = DecodeRpcResponse(*reply);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  ASSERT_EQ(response->values.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // The invariant the whole tier rests on: the remote answer is the
    // same IEEE double, not merely close.
    EXPECT_EQ(std::memcmp(&response->values[i], &expected[i],
                          sizeof(double)),
              0)
        << "query " << i;
  }
}

TEST(ClusterWorkerTest, RejectsUnknownObjectAndVertexMismatch) {
  ServingWorker serving = StartWorker();
  const DirectedGraph graph = TestGraph(10, 30, 5);
  const RpcRequest reg = RegisterGraphRequest(graph);
  RpcResponse reg_response = serving.worker->Execute(reg);
  ASSERT_TRUE(reg_response.status.ok());

  RpcRequest unknown;
  unknown.kind = RpcKind::kQueryBatch;
  unknown.object_id = 999;
  unknown.num_vertices = 10;
  unknown.sides = RandomSides(10, 1, 6);
  EXPECT_EQ(serving.worker->Execute(unknown).status.code(),
            StatusCode::kNotFound);

  RpcRequest mismatch;
  mismatch.kind = RpcKind::kQueryBatch;
  mismatch.object_id = reg_response.object_id;
  mismatch.num_vertices = 11;
  mismatch.sides = RandomSides(11, 1, 6);
  EXPECT_EQ(serving.worker->Execute(mismatch).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterWorkerTest, FullQueueFastRejectsButAnswersPing) {
  ClusterWorkerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 1;
  options.execution_delay_ms = 400;
  ServingWorker serving = StartWorker(options);

  // Two saturators keep the single shard busy: one executing, one queued.
  // Nonexistent object ids still go through admission + the shard thread.
  // They loop (refilling the slot they just vacated) until the main
  // thread has observed a rejection, so the client cannot simply wait out
  // a one-shot saturation window while parked inside its own request.
  std::atomic<bool> saturating{true};
  auto saturate = [&](int id) {
    RpcRequest query;
    query.kind = RpcKind::kQueryBatch;
    query.object_id = 100 + id;
    query.num_vertices = 4;
    query.sides = RandomSides(4, 1, static_cast<uint64_t>(id));
    while (saturating.load()) {
      serving.worker->Execute(query);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  std::thread first(saturate, 1);
  std::thread second(saturate, 2);

  // Over the socket, retry until the full queue's fast reject is observed
  // (the saturators dispatch asynchronously), then check it really was
  // fast — it must not have waited out the running job's delay.
  auto connection = Connect(serving.worker->endpoint(), 1000);
  ASSERT_TRUE(connection.ok());
  Status rejected = OkStatus();
  int64_t reject_ms = 0;
  for (int attempt = 0; attempt < 60 && rejected.ok(); ++attempt) {
    RpcRequest query;
    query.kind = RpcKind::kQueryBatch;
    query.object_id = 0;
    query.num_vertices = 4;
    query.sides = RandomSides(4, 1, 3);
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(connection->Send(EncodeRpcRequest(query), 1000).ok());
    auto reply = connection->Receive(5000);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto response = DecodeRpcResponse(*reply);
    ASSERT_TRUE(response.ok());
    if (response->status.code() == StatusCode::kResourceExhausted) {
      rejected = response->status;
      reject_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      elapsed)
                      .count();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(rejected.ok()) << "queue-full rejection never surfaced";
  EXPECT_LT(reject_ms, 300);

  // Health checks bypass the shard queues, so overload never reads as
  // death.
  RpcRequest ping;
  ping.kind = RpcKind::kPing;
  ASSERT_TRUE(connection->Send(EncodeRpcRequest(ping), 1000).ok());
  auto ping_reply = connection->Receive(2000);
  ASSERT_TRUE(ping_reply.ok());
  auto ping_response = DecodeRpcResponse(*ping_reply);
  ASSERT_TRUE(ping_response.ok());
  EXPECT_TRUE(ping_response->status.ok());

  saturating.store(false);
  first.join();
  second.join();
}

TEST(ClusterWorkerTest, AdmissionControlAndDrain) {
  // One shard admits one executing request plus queue_capacity waiting;
  // the next is refused at once, every admitted one is answered, and a
  // drained worker refuses everything with kUnavailable.
  ClusterWorkerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 2;
  options.execution_delay_ms = 500;
  ServingWorker serving = StartWorker(options);

  const DirectedGraph graph = TestGraph(8, 20, 41);
  const RpcRequest reg = RegisterGraphRequest(graph);
  const RpcResponse reg_response = serving.worker->Execute(reg);
  ASSERT_TRUE(reg_response.status.ok()) << reg_response.status.ToString();
  RpcRequest query;
  query.kind = RpcKind::kQueryBatch;
  query.object_id = reg_response.object_id;
  query.num_vertices = graph.num_vertices();
  query.sides = RandomSides(graph.num_vertices(), 1, 42);

  std::vector<RpcResponse> admitted(3);
  std::vector<std::thread> callers;
  for (RpcResponse& slot : admitted) {
    callers.emplace_back(
        [&, out = &slot] { *out = serving.worker->Execute(query); });
  }
  // The three callers are admitted within microseconds; the first holds
  // the shard for the whole delay, so all three are in flight here.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto start = std::chrono::steady_clock::now();
  const RpcResponse over = serving.worker->Execute(query);
  const int64_t over_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(over.status.code(), StatusCode::kResourceExhausted)
      << over.status.ToString();
  EXPECT_LT(over_ms, 100);

  for (std::thread& caller : callers) caller.join();
  for (const RpcResponse& response : admitted) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.values.size(), 1u);
  }

  serving.Stop();  // RequestStop, then Serve's drain runs to completion
  EXPECT_EQ(serving.worker->Execute(query).status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(serving.worker->Execute(reg).status.code(),
            StatusCode::kUnavailable);
}

TEST(ClusterWorkerTest, DrainsInFlightRequestOnStop) {
  ClusterWorkerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 4;
  options.execution_delay_ms = 200;
  ServingWorker serving = StartWorker(options);

  const DirectedGraph graph = TestGraph(8, 20, 9);
  const RpcRequest reg = RegisterGraphRequest(graph);
  const RpcResponse reg_response = serving.worker->Execute(reg);
  ASSERT_TRUE(reg_response.status.ok());

  auto connection = Connect(serving.worker->endpoint(), 1000);
  ASSERT_TRUE(connection.ok());
  RpcRequest query;
  query.kind = RpcKind::kQueryBatch;
  query.object_id = reg_response.object_id;
  query.num_vertices = graph.num_vertices();
  query.sides = RandomSides(graph.num_vertices(), 2, 10);
  ASSERT_TRUE(connection->Send(EncodeRpcRequest(query), 1000).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // SIGTERM semantics: stop requested while the query is mid-execution.
  serving.worker->RequestStop();
  auto reply = connection->Receive(5000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = DecodeRpcResponse(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok()) << response->status.ToString();
  EXPECT_EQ(response->values.size(), 2u);
}

TEST(ClusterWorkerTest, DrainSealsStoreSegments) {
  // Satellite of the §15 store work: the SIGTERM drain (RequestStop +
  // Serve running to completion) must seal the open segment, so a kill
  // *after* the drain finds nothing fsck calls corrupt — at worst nothing
  // at all to recover.
  char dir_template[] = "/tmp/dcs_drain_store_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string store_dir = std::string(dir_template) + "/store";

  {
    ClusterWorkerOptions options;
    options.store_dir = store_dir;
    ServingWorker serving = StartWorker(options);
    for (int g = 0; g < 3; ++g) {
      const RpcRequest reg = RegisterGraphRequest(TestGraph(10 + g, 30, 70 + static_cast<uint64_t>(g)));
      ASSERT_TRUE(serving.worker->Execute(reg).status.ok());
    }
    // Stop() requests the drain and joins Serve(), whose return value the
    // serving thread asserts OK — a failed seal would fail the test there.
  }

  const auto fsck = FsckSketchStore(store_dir);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  ASSERT_FALSE(fsck->segments.empty());
  for (const auto& segment : fsck->segments) {
    EXPECT_EQ(segment.state, "sealed") << segment.file << ": "
                                       << segment.detail;
  }
  auto reopened = SketchStore::Open(store_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), 3);

  reopened->reset();
  const std::string command = std::string("rm -rf '") + dir_template + "'";
  ASSERT_EQ(std::system(command.c_str()), 0);
}

TEST(ClusterWorkerTest, RefusesGraphOverVertexCapBeforeStoringIt) {
  // A few hundred bits on the wire can declare 2^28 vertices and no
  // edges; indexing that graph would allocate gigabytes. The worker
  // refuses it before the store sees it (this suite also runs under a
  // 128 MB per-allocation cap), and a store that holds one anyway refuses
  // to warm-load.
  char dir_template[] = "/tmp/dcs_vertex_cap_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string store_dir = std::string(dir_template) + "/store";
  ClusterWorkerOptions options;
  options.store_dir = store_dir;
  {
    auto worker = ClusterWorker::Create(Loopback(), options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    const auto request = DecodeRpcRequest(
        EncodeRpcRequest(RegisterGraphRequest(DirectedGraph(1 << 28))));
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    const RpcResponse refused = (*worker)->Execute(*request);
    EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument)
        << refused.status.ToString();
    EXPECT_EQ((*worker)->num_registered(), 0);
    // The refusal took no round-robin slot: the next graph is object 0.
    const RpcResponse accepted =
        (*worker)->Execute(RegisterGraphRequest(TestGraph(8, 20, 91)));
    ASSERT_TRUE(accepted.status.ok()) << accepted.status.ToString();
    EXPECT_EQ(accepted.object_id, 0);
  }
  {
    std::vector<SegmentRecord> records;
    auto store = SketchStore::Open(store_dir, &records);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].object_id, 0);
    // Plant an over-cap graph as object 1, as an older worker might have.
    BitWriter writer;
    SerializeDirectedGraph(DirectedGraph(ClusterWorker::kMaxVertices + 1),
                           writer);
    ASSERT_TRUE((*store)
                    ->Put(1, StreamKind::kDirectedGraph, writer.bytes(),
                          writer.bit_count())
                    .ok());
    ASSERT_TRUE((*store)->Seal().ok());
  }
  const auto rebooted = ClusterWorker::Create(Loopback(), options);
  ASSERT_FALSE(rebooted.ok());
  EXPECT_EQ(rebooted.status().code(), StatusCode::kInvalidArgument)
      << rebooted.status().ToString();

  const std::string command = std::string("rm -rf '") + dir_template + "'";
  ASSERT_EQ(std::system(command.c_str()), 0);
}

TEST(ClusterClientTest, RegisterReplicatedSerializesOnce) {
#if !DCS_METRICS_ENABLED
  GTEST_SKIP() << "library compiled with DCS_ENABLE_METRICS=OFF";
#endif
  ServingWorker workers[3] = {StartWorker(), StartWorker(), StartWorker()};
  ClusterClientOptions options;
  options.replication = 3;
  options.transport = FastTransport();
  ClusterClient client({workers[0].worker->endpoint(),
                        workers[1].worker->endpoint(),
                        workers[2].worker->endpoint()},
                       options);
  const DirectedGraph graph = TestGraph(20, 80, 93);
  const metrics::MetricsSnapshot before = metrics::Registry::Get().Snapshot();
  auto handle = client.RegisterReplicated(graph);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const metrics::MetricsSnapshot diff =
      metrics::Registry::Get().Snapshot().DiffSince(before);
  const auto written = diff.counters.find("serialization.envelope.written");
  ASSERT_NE(written, diff.counters.end());
  EXPECT_EQ(written->second, 1);
  for (const ServingWorker& serving : workers) {
    EXPECT_EQ(serving.worker->num_registered(), 1);
  }
}

TEST(ClusterClientTest, WarmRestartReattachesWithoutResendingGraphs) {
  // The store-backed respawn path end to end: a worker that persisted its
  // registrations is killed and a fresh incarnation warm-loads them; the
  // client's Repair revives its replica via kReattach (no graph bytes on
  // the wire) and answers stay bit-identical.
  char dir_template[] = "/tmp/dcs_warm_restart_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string spec = std::string("unix:") + dir_template + "/w.sock";
  const std::string store_dir = std::string(dir_template) + "/store";

  ClusterWorkerOptions worker_options;
  worker_options.store_dir = store_dir;

  const DirectedGraph graph = TestGraph(16, 60, 81);
  const std::vector<VertexSet> sides = RandomSides(16, 5, 82);
  CutQueryService reference;
  const auto reference_id = reference.RegisterGraph(graph);
  std::vector<CutQueryService::Query> reference_batch;
  for (const VertexSet& side : sides) {
    reference_batch.push_back(CutQueryService::Query{reference_id, side});
  }
  const std::vector<double> expected = reference.AnswerBatch(reference_batch);

  auto serving = std::make_unique<ServingWorker>();
  *serving = StartWorker(worker_options, spec);
  const Endpoint endpoint = serving->worker->endpoint();
  const uint64_t first_token = serving->worker->token();

  ClusterClientOptions options;
  options.replication = 1;
  options.transport = FastTransport();
  ClusterClient client({endpoint}, options);
  auto handle = client.RegisterReplicated(graph);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  // Populate the worker's cache so the drain has something to snapshot.
  ASSERT_TRUE(client.AnswerBatch(*handle, sides).ok());

  // Drain-restart on the same store directory.
  serving->Stop();
  serving = std::make_unique<ServingWorker>();
  *serving = StartWorker(worker_options, spec);
  ASSERT_NE(serving->worker->token(), first_token);

  // The respawn is NOT amnesiac: registrations and warm cache came back
  // from disk before the listener opened.
  EXPECT_EQ(serving->worker->num_registered(), 1);
  EXPECT_EQ(serving->worker->warm_loaded_objects(), 1);
  EXPECT_GT(serving->worker->cache_entries(), 0);

  // The client still holds a stale token, so Repair runs — and must take
  // the reattach fast path rather than re-sending the graph.
  ASSERT_TRUE(client.HealthCheck().ok());
  auto repaired = client.Repair();
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(*repaired, 1);
  EXPECT_EQ(client.reattached_replicas(), 1);

  auto answer = client.AnswerBatch(*handle, sides);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&(*answer)[i], &expected[i], sizeof(double)), 0)
        << "query " << i;
  }

  serving->Stop();
  const std::string command = std::string("rm -rf '") + dir_template + "'";
  ASSERT_EQ(std::system(command.c_str()), 0);
}

TEST(ClusterClientTest, FailsOverToSurvivingReplicaBitIdentically) {
  ServingWorker worker0 = StartWorker();
  ServingWorker worker1 = StartWorker();
  const DirectedGraph graph = TestGraph(20, 90, 21);
  const std::vector<VertexSet> sides = RandomSides(20, 6, 22);

  CutQueryService reference;
  const auto reference_id = reference.RegisterGraph(graph);
  std::vector<CutQueryService::Query> reference_batch;
  for (const VertexSet& side : sides) {
    reference_batch.push_back(CutQueryService::Query{reference_id, side});
  }
  const std::vector<double> expected = reference.AnswerBatch(reference_batch);

  ClusterClientOptions options;
  options.replication = 2;
  options.transport = FastTransport();
  ClusterClient client(
      {worker0.worker->endpoint(), worker1.worker->endpoint()}, options);
  auto handle = client.RegisterReplicated(graph);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  auto before = client.AnswerBatch(*handle, sides);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Kill the primary replica's worker; the client must fail over and the
  // survivor's answer must still match the oracle exactly.
  worker0.Stop();
  auto after = client.AnswerBatch(*handle, sides);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&(*after)[i], &expected[i], sizeof(double)), 0)
        << "query " << i;
    EXPECT_EQ(std::memcmp(&(*before)[i], &expected[i], sizeof(double)), 0)
        << "query " << i;
  }

  // Both replicas gone: the loss must surface as kUnavailable.
  worker1.Stop();
  auto lost = client.AnswerBatch(*handle, sides);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kUnavailable);
}

TEST(ClusterClientTest, BackpressurePassesThroughWithoutFailover) {
  ClusterWorkerOptions overloaded;
  overloaded.num_shards = 1;
  overloaded.queue_capacity = 1;
  overloaded.execution_delay_ms = 400;
  ServingWorker worker0 = StartWorker(overloaded);
  ServingWorker worker1 = StartWorker();

  const DirectedGraph graph = TestGraph(12, 40, 31);
  ClusterClientOptions options;
  options.replication = 2;
  options.transport = FastTransport();
  ClusterClient client(
      {worker0.worker->endpoint(), worker1.worker->endpoint()}, options);
  auto handle = client.RegisterReplicated(graph);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  // Saturate worker 0 (the primary replica) with two slow direct callers
  // that loop, keeping its single-slot queue persistently full until the
  // main thread has observed a rejection.
  std::atomic<bool> saturating{true};
  auto saturate = [&](int id) {
    RpcRequest query;
    query.kind = RpcKind::kQueryBatch;
    query.object_id = 500 + id;
    query.num_vertices = 4;
    query.sides = RandomSides(4, 1, static_cast<uint64_t>(id));
    while (saturating.load()) {
      worker0.worker->Execute(query);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  std::thread first(saturate, 1);
  std::thread second(saturate, 2);

  // Backpressure is not a loss: the client must hand kResourceExhausted to
  // the caller, NOT shift the load onto worker 1. An OK answer can only
  // mean the saturators were not dispatched yet (the full queue rejects,
  // and kResourceExhausted never triggers failover) — retry until the
  // rejection is observed. A (buggy) client that failed over would keep
  // answering OK from worker 1 and exhaust the retries.
  Status rejected = OkStatus();
  for (int attempt = 0; attempt < 60 && rejected.ok(); ++attempt) {
    auto answer = client.AnswerBatch(
        *handle, RandomSides(graph.num_vertices(), 2, 32));
    if (!answer.ok()) {
      rejected = answer.status();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  saturating.store(false);
  first.join();
  second.join();
  ASSERT_FALSE(rejected.ok()) << "queue-full rejection never surfaced";
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted)
      << rejected.ToString();
}

TEST(ClusterClientTest, DetectsRespawnedWorkerAndRepairs) {
  char dir_template[] = "/tmp/dcs_transport_test_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string spec = std::string("unix:") + dir_template + "/w.sock";

  auto serving = std::make_unique<ServingWorker>();
  *serving = StartWorker({}, spec);
  const Endpoint endpoint = serving->worker->endpoint();
  const uint64_t first_token = serving->worker->token();

  const DirectedGraph graph = TestGraph(16, 60, 41);
  const std::vector<VertexSet> sides = RandomSides(16, 4, 42);
  CutQueryService reference;
  const auto reference_id = reference.RegisterGraph(graph);
  std::vector<CutQueryService::Query> reference_batch;
  for (const VertexSet& side : sides) {
    reference_batch.push_back(CutQueryService::Query{reference_id, side});
  }
  const std::vector<double> expected = reference.AnswerBatch(reference_batch);

  ClusterClientOptions options;
  options.replication = 1;
  options.transport = FastTransport();
  ClusterClient client({endpoint}, options);
  auto handle = client.RegisterReplicated(graph);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(client.AnswerBatch(*handle, sides).ok());

  // "Respawn": a new worker instance on the same endpoint, with a fresh
  // token and no registrations.
  serving->Stop();
  serving = std::make_unique<ServingWorker>();
  *serving = StartWorker({}, spec);
  ASSERT_NE(serving->worker->token(), first_token);

  // The stale registration must surface as an error — never as another
  // object's (or an empty registry's) answer.
  auto stale = client.AnswerBatch(*handle, sides);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);

  // HealthCheck observes the new incarnation; Repair re-registers from the
  // client's retained graph; answers are bit-identical again.
  ASSERT_TRUE(client.HealthCheck().ok());
  auto repaired = client.Repair();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, 1);
  auto answer = client.AnswerBatch(*handle, sides);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&(*answer)[i], &expected[i], sizeof(double)), 0);
  }

  serving->Stop();
  std::remove((std::string(dir_template) + "/w.sock").c_str());
  ::rmdir(dir_template);
}

TEST(ClusterClientTest, RejectsUnissuedHandles) {
  ServingWorker live = StartWorker();
  ServingWorker stopped = StartWorker();
  const Endpoint stopped_endpoint = stopped.worker->endpoint();
  stopped.Stop();
  const DirectedGraph graph = TestGraph(12, 40, 71);
  const std::vector<VertexSet> sides = RandomSides(12, 3, 72);
  ClusterClientOptions options;
  options.replication = 1;
  options.transport = FastTransport();

  // A registration that reaches no live worker issues no handle, so
  // handle 0 stays unknown.
  ClusterClient unplaced({stopped_endpoint}, options);
  auto failed = unplaced.RegisterReplicated(graph);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  for (const ClusterClient::ObjectHandle handle : {-1, 0}) {
    auto answer = unplaced.AnswerBatch(handle, sides);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument)
        << "handle " << handle;
  }

  // Next to an issued handle, neighbours on either side are still unknown.
  ClusterClient client({live.worker->endpoint()}, options);
  auto handle = client.RegisterReplicated(graph);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(client.AnswerBatch(*handle, sides).ok());
  for (const ClusterClient::ObjectHandle unissued :
       {*handle - 1, *handle + 1}) {
    auto answer = client.AnswerBatch(unissued, sides);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument)
        << "handle " << unissued;
  }
}

#ifdef DCS_SERVER_PATH
TEST(WorkerProcessTest, SpawnServeKillReap) {
  char dir_template[] = "/tmp/dcs_worker_proc_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  auto endpoint =
      ParseEndpoint(std::string("unix:") + dir_template + "/w.sock");
  ASSERT_TRUE(endpoint.ok());

  ClusterWorkerOptions options;
  auto spawned = SpawnWorker(DCS_SERVER_PATH, *endpoint, options);
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  ASSERT_TRUE(WaitForWorkerReady(*endpoint, 10000).ok());
  EXPECT_TRUE(WorkerRunning(*spawned));

  // A real query against the real process.
  const DirectedGraph graph = TestGraph(12, 40, 61);
  ClusterClientOptions client_options;
  client_options.replication = 1;
  client_options.transport = FastTransport();
  ClusterClient client({*endpoint}, client_options);
  auto handle = client.RegisterReplicated(graph);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto answer = client.AnswerBatch(*handle, RandomSides(12, 3, 62));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  // SIGKILL: the chaos signal. The corpse must reap cleanly, exactly once.
  ASSERT_TRUE(KillWorker(*spawned, SIGKILL).ok());
  ASSERT_TRUE(ReapWorker(*spawned, /*blocking=*/true).ok());
  EXPECT_FALSE(WorkerRunning(*spawned));
  EXPECT_EQ(ReapWorker(*spawned, /*blocking=*/true).code(),
            StatusCode::kNotFound);

  std::remove((std::string(dir_template) + "/w.sock").c_str());
  ::rmdir(dir_template);
}

TEST(WorkerProcessTest, SigtermDrainsAndExits) {
  char dir_template[] = "/tmp/dcs_worker_term_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  auto endpoint =
      ParseEndpoint(std::string("unix:") + dir_template + "/w.sock");
  ASSERT_TRUE(endpoint.ok());

  // A real SIGTERM against a real store-backed process: the drain must
  // leave every segment sealed on disk before the process exits.
  ClusterWorkerOptions options;
  options.store_dir = std::string(dir_template) + "/store";
  auto spawned = SpawnWorker(DCS_SERVER_PATH, *endpoint, options);
  ASSERT_TRUE(spawned.ok());
  ASSERT_TRUE(WaitForWorkerReady(*endpoint, 10000).ok());

  ClusterClientOptions client_options;
  client_options.replication = 1;
  client_options.transport = FastTransport();
  ClusterClient client({*endpoint}, client_options);
  ASSERT_TRUE(client.RegisterReplicated(TestGraph(10, 30, 91)).ok());

  ASSERT_TRUE(KillWorker(*spawned, SIGTERM).ok());
  // Drain-then-stop exits on its own; blocking reap must not hang.
  ASSERT_TRUE(ReapWorker(*spawned, /*blocking=*/true).ok());

  const auto fsck = FsckSketchStore(options.store_dir);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  ASSERT_FALSE(fsck->segments.empty());
  for (const auto& segment : fsck->segments) {
    EXPECT_EQ(segment.state, "sealed") << segment.file << ": "
                                       << segment.detail;
  }

  const std::string command = std::string("rm -rf '") + dir_template + "'";
  ASSERT_EQ(std::system(command.c_str()), 0);
}
#endif  // DCS_SERVER_PATH

}  // namespace
}  // namespace dcs
