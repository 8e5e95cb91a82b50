// Shared plumbing for bench_e2e: run options and results, seeded inputs,
// scratch directories and dcs_server worker processes that never outlive
// the benchmark, and the readiness probe that replaces WaitForWorkerReady
// (whose 10 ms sleep would quantize every restart time).

#ifndef DCS_BENCH_E2E_HARNESS_H_
#define DCS_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "e2e/percentile.h"
#include "graph/digraph.h"
#include "graph/types.h"
#include "serve/cluster.h"
#include "serve/cluster_client.h"
#include "serve/transport.h"
#include "serve/worker_process.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace dcs::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// SIGINT/SIGTERM set a flag that every loop polls; the run then unwinds
// through its destructors, which kill workers and remove scratch files.
void InstallInterruptHandlers();
bool Interrupted();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Existing directory for scratch files (stores, unix sockets, traces).
  // Relative paths keep socket names under the sockaddr_un limit.
  std::string work_dir;
  std::string server_binary;
};

// Set-ups per run: setup_s is their median, and the last one is timed.
inline constexpr int kSetUps = 3;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// A workload's end-to-end measurements as taken on this host, before
// bench_e2e.cc scales them to the reference host speed (host_speed.h).
struct EndToEnd {
  double latency_p50_us = 0;
  double throughput_per_s = 0;
  double peak_rss_mb = 0;
  double setup_s = 0;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Failed correctness checks: wrong answers, failed operations, a digest
  // that differs from its reference. Empty = "correct": true.
  std::vector<std::string> violations;
  // Reasons the measurement itself is unusable (too few samples for a
  // tail). The outputs may still be correct, but the run exits non-zero.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;   // per-layer metrics (--trace 1)
  std::optional<EndToEnd> end_to_end;  // --trace 0
  // The host-speed reference kernel's times, in ms, just before and just
  // after the timed window (host_speed.h).
  std::vector<double> reference_ms;
  JsonValue details = JsonValue::MakeObject();  // sample counts etc.

  bool correct() const { return violations.empty(); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Violation(std::string what) { violations.push_back(std::move(what)); }
};

// Seeded inputs. Irregular weights on purpose: bit-identity must cover
// real floating-point sums, as in load_driver.
DirectedGraph MakeGraph(int num_vertices, int num_edges, uint64_t seed);
VertexSet RandomSide(int num_vertices, Rng& rng);

// Answers of `got` that differ, bit for bit, from `expected` (all of them
// when the sizes differ).
int64_t CountDiffering(const std::vector<double>& got,
                       const std::vector<double>& expected);

// A directory created under a parent and removed with its contents on
// destruction.
class ScratchDir {
 public:
  static StatusOr<std::unique_ptr<ScratchDir>> Create(
      const std::string& parent, const std::string& prefix);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

// Creates `path` (and parents); OK if it exists.
Status MakeDirs(const std::string& path);
// Copies a directory tree (a store) file by file.
Status CopyDir(const std::string& from, const std::string& to);
// Sum of the sizes of the regular files directly inside `dir`.
int64_t DirBytes(const std::string& dir);

// One dcs_server child. The destructor SIGKILLs and reaps it, so no exit
// path leaves a worker running.
class WorkerGuard {
 public:
  WorkerGuard(std::string binary, Endpoint endpoint,
              ClusterWorkerOptions options)
      : binary_(std::move(binary)),
        endpoint_(std::move(endpoint)),
        options_(std::move(options)) {}
  ~WorkerGuard() { (void)Kill(); }
  WorkerGuard(const WorkerGuard&) = delete;
  WorkerGuard& operator=(const WorkerGuard&) = delete;

  Status Spawn();
  // SIGKILL and a blocking reap. OK when nothing is running.
  Status Kill();
  // VmHWM of the running worker, in MB (0 if unreadable).
  double PeakRssMb() const;

 private:
  std::string binary_;
  Endpoint endpoint_;
  ClusterWorkerOptions options_;
  WorkerProcess process_;
};

// A memory field of /proc/<pid>/status ("VmHWM", the peak resident set;
// "VmRSS", the current one) of a process ("self" for this one), in MB; 0
// if unreadable.
double ProcStatusMb(const std::string& pid, const std::string& field);

// Client settings for every bench_e2e client: R = 1 (one worker), one
// connect attempt per call so readiness polling is not slowed by the
// transport's own backoff.
ClusterClientOptions BenchClientOptions(uint64_t seed);

// Pings until the client's worker 0 answers, polling every 100 µs.
Status AwaitHealthy(ClusterClient& client, int timeout_ms);

// Runs `setup` kSetUps times, tearing each result down before the next,
// and returns the last; its durations' median goes to *median_s.
template <typename SetUp>
auto SetUpRepeatedly(double* median_s, SetUp setup) -> decltype(setup()) {
  std::vector<double> seconds;
  decltype(setup()) last = UnavailableError("no set-up ran");
  for (int i = 0; i < kSetUps && !Interrupted(); ++i) {
    last = UnavailableError("previous set-up torn down");
    const auto start = Clock::now();
    last = setup();
    seconds.push_back(SecondsBetween(start, Clock::now()));
    if (!last.ok()) break;
  }
  *median_s = Median(seconds);
  return last;
}

// A timed window cut into bins of about a second. Throughput is reported
// as the median bin's rate: a stall of a second or two on a shared machine
// moves it far less than it moves the window's mean.
struct Window {
  Clock::time_point start;
  Clock::time_point deadline;
  int bins = 1;

  static Window Open(double seconds);
  double bin_seconds() const {
    return SecondsBetween(start, deadline) / bins;
  }
  // Adds `units` of work done over [begin, end) to `work_bins` (sized to
  // `bins`), pro rata over the bins the interval overlaps, so a slow
  // operation does not quantize the rate; work after the deadline is
  // dropped.
  void Spread(double units, Clock::time_point begin, Clock::time_point end,
              std::vector<double>& work_bins) const;
};

// Sets result.end_to_end. `latencies_us` are the samples of the workload's
// timed operation and work_bins[b] the work units completed in bin b. The
// tail at percentile `p` goes to the details with its sample count, not to
// the metrics: on a shared host its run-to-run spread exceeds any bound the
// benchmark could hold it to.
void SetEndToEnd(RunResult& result, const std::vector<double>& latencies_us,
                 double p, const Window& window,
                 const std::vector<double>& work_bins, double rss_mb,
                 double setup_s);

}  // namespace dcs::e2e

#endif  // DCS_BENCH_E2E_HARNESS_H_
