#include "serve/worker_process.h"

#include <signal.h>
#include <spawn.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "serve/wire.h"

namespace dcs {

StatusOr<WorkerProcess> SpawnWorker(const std::string& server_binary,
                                    const Endpoint& endpoint,
                                    const ClusterWorkerOptions& options) {
  options.Check();
  // Fail fast on a missing or non-executable binary, with errno's own
  // reason, before a child is made at all.
  if (::access(server_binary.c_str(), X_OK) != 0) {
    return NotFoundError("server binary " + server_binary +
                         " is not executable: " + std::strerror(errno));
  }
  const std::string spec = endpoint.ToSpec();
  const std::string shards = std::to_string(options.num_shards);
  const std::string queue = std::to_string(options.queue_capacity);
  const std::string io_timeout = std::to_string(options.io_timeout_ms);
  const std::string delay = std::to_string(options.execution_delay_ms);
  // posix_spawn wants mutable char*; the strings above outlive the call.
  std::vector<char*> argv;
  auto push = [&argv](const std::string& s) {
    argv.push_back(const_cast<char*>(s.c_str()));
  };
  push(server_binary);
  const std::string flag_listen = "--listen";
  const std::string flag_shards = "--shards";
  const std::string flag_queue = "--queue-capacity";
  const std::string flag_io = "--io-timeout-ms";
  const std::string flag_delay = "--execution-delay-ms";
  push(flag_listen);
  push(spec);
  push(flag_shards);
  push(shards);
  push(flag_queue);
  push(queue);
  push(flag_io);
  push(io_timeout);
  push(flag_delay);
  push(delay);
  const std::string flag_store = "--store-dir";
  const std::string flag_warm = "--warm-cache";
  const std::string warm = std::to_string(options.warm_cache_entries);
  if (!options.store_dir.empty()) {
    push(flag_store);
    push(options.store_dir);
    push(flag_warm);
    push(warm);
  }
  argv.push_back(nullptr);

  // posix_spawn, not fork + exec: the child shares the parent's memory
  // until it execs (no page-table copy, no copy-on-write faults in a
  // parent with many threads or a large heap), and an exec failure comes
  // back here as the error instead of as a child's exit status.
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, server_binary.c_str(), nullptr,
                                    nullptr, argv.data(), environ);
  if (spawned != 0) {
    const std::string message = "cannot spawn server binary " +
                                server_binary + ": " +
                                std::strerror(spawned);
    return spawned == EAGAIN || spawned == ENOMEM
               ? UnavailableError(message)
               : NotFoundError(message);
  }
  WorkerProcess worker;
  worker.pid = pid;
  worker.endpoint = endpoint;
  return worker;
}

Status WaitForWorkerReady(const Endpoint& endpoint, int timeout_ms) {
  // A fresh worker answers a few ms after spawn: the pause between pings
  // starts short and doubles up to a cap, so readiness is seen soon after
  // it happens without pinging a slow start hundreds of times.
  constexpr std::chrono::microseconds kFirstPause{200};
  constexpr std::chrono::microseconds kMaxPause{5000};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  RpcRequest ping;
  ping.kind = RpcKind::kPing;
  const Message encoded = EncodeRpcRequest(ping);
  std::chrono::microseconds pause = kFirstPause;
  while (std::chrono::steady_clock::now() < deadline) {
    auto connection = Connect(endpoint, 200);
    if (connection.ok() && connection->Send(encoded, 500).ok()) {
      auto reply = connection->Receive(500);
      if (reply.ok() && DecodeRpcResponse(*reply).ok()) return OkStatus();
    }
    std::this_thread::sleep_for(pause);
    pause = std::min(2 * pause, kMaxPause);
  }
  return DeadlineExceededError("transport deadline: worker at " +
                               endpoint.ToSpec() + " never became ready");
}

Status KillWorker(const WorkerProcess& worker, int signo) {
  if (!worker.alive()) return NotFoundError("worker was never spawned");
  if (::kill(worker.pid, signo) != 0) {
    return NotFoundError(std::string("kill failed: ") +
                         std::strerror(errno));
  }
  return OkStatus();
}

Status ReapWorker(WorkerProcess& worker, bool blocking) {
  if (!worker.alive()) return NotFoundError("worker already reaped");
  int wait_status = 0;
  while (true) {
    const pid_t reaped =
        ::waitpid(worker.pid, &wait_status, blocking ? 0 : WNOHANG);
    if (reaped == worker.pid) {
      worker.pid = -1;
      return OkStatus();
    }
    if (reaped == 0) return UnavailableError("worker is still running");
    if (errno == EINTR) continue;
    return NotFoundError(std::string("waitpid failed: ") +
                         std::strerror(errno));
  }
}

bool WorkerRunning(const WorkerProcess& worker) {
  if (!worker.alive()) return false;
  return ::kill(worker.pid, 0) == 0;
}

}  // namespace dcs
