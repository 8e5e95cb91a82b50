// Spawning, killing, and reaping real dcs_server worker processes — the
// machinery behind the process-kill chaos soak (DESIGN.md §14).
//
// SpawnWorker posix_spawns the dcs_server binary serving one endpoint;
// WaitForWorkerReady polls with transport pings until the worker answers
// (or a deadline passes). Kill delivers a signal (SIGKILL for chaos,
// SIGTERM for drain) and Reap waitpid()s the corpse so the soak never
// accumulates zombies. All helpers return Status — a vanished child or a
// failed exec is data, not an abort.

#ifndef DCS_SERVE_WORKER_PROCESS_H_
#define DCS_SERVE_WORKER_PROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "serve/cluster.h"
#include "serve/transport.h"
#include "util/status.h"

namespace dcs {

struct WorkerProcess {
  pid_t pid = -1;
  Endpoint endpoint;
  bool alive() const { return pid > 0; }
};

// posix_spawns `server_binary --listen <endpoint> --shards N ...`. The
// child inherits nothing interesting (sockets are CLOEXEC). kNotFound when
// the binary is missing, not executable or fails to exec; kUnavailable
// when the system is out of processes or memory. Returns once the child
// has exec'd; use WaitForWorkerReady before sending requests.
StatusOr<WorkerProcess> SpawnWorker(const std::string& server_binary,
                                    const Endpoint& endpoint,
                                    const ClusterWorkerOptions& options);

// Pings the endpoint until it answers (fresh connection per attempt),
// pausing 0.2 ms between the first attempts and doubling the pause up to
// 5 ms. kDeadlineExceeded if the worker never comes up within timeout_ms.
Status WaitForWorkerReady(const Endpoint& endpoint, int timeout_ms);

// Sends `signo` (SIGKILL / SIGTERM). kNotFound if the process is already
// reaped or was never spawned.
Status KillWorker(const WorkerProcess& worker, int signo);

// waitpid()s the child. blocking=false returns kUnavailable if the child
// is still running; on success (either mode) marks the handle reaped
// (pid = -1). Reaping twice is kNotFound.
Status ReapWorker(WorkerProcess& worker, bool blocking);

// True while the child exists and has not been reaped (WNOHANG probe;
// does not reap).
bool WorkerRunning(const WorkerProcess& worker);

}  // namespace dcs

#endif  // DCS_SERVE_WORKER_PROCESS_H_
