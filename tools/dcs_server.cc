// dcs_server — one cut-query worker process (DESIGN.md §14).
//
// Hosts sharded CutQueryService instances, each admitting a bounded
// number of requests (DESIGN.md §14), and serves the checksummed RPC
// envelope over a unix/tcp socket. Spawned
// in fleets by the `dcs cluster` chaos soak and by tests; also usable
// standalone:
//
//   dcs_server --listen unix:/tmp/w0.sock --shards 2 --queue-capacity 64
//
// --queue-capacity N is the number of requests that may wait per shard
// behind the one executing; a request beyond that is refused at once with
// kResourceExhausted.
//
// With --store-dir DIR the worker persists every registered graph to a
// disk-backed sketch store (DESIGN.md §15): a respawn on the same
// directory warm-loads all objects under their original ids (clients
// reattach instead of re-sending sketches), and the drain additionally
// dumps the hottest cache entries for the next incarnation.
//
// SIGTERM (and SIGINT) trigger a drain-then-stop shutdown: new requests
// are refused with kUnavailable, the listener closes, every admitted
// request (executing or waiting for its shard) is answered, the store
// segment is sealed, and only then does the process exit. SIGKILL —
// the chaos signal — gets no such courtesy, which is exactly what the
// soak is for.
//
// Exit codes: 0 clean shutdown, 1 serve/bind failure, 2 usage error.

#include <signal.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/cluster.h"
#include "serve/transport.h"

namespace {

// Signal handlers may only touch the worker through an async-signal-safe
// call; ClusterWorker::RequestStop is an atomic store and a write(2) by
// contract.
dcs::ClusterWorker* g_worker = nullptr;

void HandleStopSignal(int) {
  if (g_worker != nullptr) g_worker->RequestStop();
}

int ParseIntFlag(const char* flag, const char* text, int min_value) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (*text == '\0' || *end != '\0' || errno == ERANGE || value < min_value ||
      value > INT_MAX) {
    std::fprintf(stderr, "dcs_server: %s: bad value '%s'\n", flag, text);
    std::exit(2);
  }
  return static_cast<int>(value);
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: dcs_server --listen <unix:PATH|tcp:HOST:PORT> "
               "[--shards N] [--queue-capacity N] [--io-timeout-ms N] "
               "[--execution-delay-ms N] [--store-dir DIR] "
               "[--warm-cache N]\n"
               "  --queue-capacity N  requests that may wait per shard "
               "behind the one executing (default 64)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_spec;
  dcs::ClusterWorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      PrintUsage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--listen") {
      listen_spec = value;
    } else if (flag == "--shards") {
      options.num_shards = ParseIntFlag("--shards", value, 1);
    } else if (flag == "--queue-capacity") {
      options.queue_capacity = ParseIntFlag("--queue-capacity", value, 1);
    } else if (flag == "--io-timeout-ms") {
      options.io_timeout_ms = ParseIntFlag("--io-timeout-ms", value, 1);
    } else if (flag == "--execution-delay-ms") {
      options.execution_delay_ms =
          ParseIntFlag("--execution-delay-ms", value, 0);
    } else if (flag == "--store-dir") {
      options.store_dir = value;
    } else if (flag == "--warm-cache") {
      options.warm_cache_entries = ParseIntFlag("--warm-cache", value, 0);
    } else {
      std::fprintf(stderr, "dcs_server: unknown flag %s\n", flag.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (listen_spec.empty()) {
    PrintUsage();
    return 2;
  }
  auto endpoint = dcs::ParseEndpoint(listen_spec);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "dcs_server: %s\n",
                 endpoint.status().ToString().c_str());
    return 2;
  }
  auto worker = dcs::ClusterWorker::Create(*endpoint, options);
  if (!worker.ok()) {
    std::fprintf(stderr, "dcs_server: %s\n",
                 worker.status().ToString().c_str());
    return 1;
  }
  g_worker = worker->get();

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  // A client that vanishes mid-write must surface as EPIPE from send(),
  // not kill the process (Send already passes MSG_NOSIGNAL; this covers
  // any future write path).
  ::signal(SIGPIPE, SIG_IGN);

  const dcs::Status served = (*worker)->Serve();
  g_worker = nullptr;
  if (!served.ok()) {
    std::fprintf(stderr, "dcs_server: %s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}
