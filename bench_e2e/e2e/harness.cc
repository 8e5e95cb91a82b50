#include "e2e/harness.h"

#include <signal.h>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace dcs::e2e {
namespace {

std::atomic<bool> g_interrupted{false};

void OnInterrupt(int) { g_interrupted.store(true, std::memory_order_relaxed); }

}  // namespace

void InstallInterruptHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnInterrupt;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

bool Interrupted() { return g_interrupted.load(std::memory_order_relaxed); }

DirectedGraph MakeGraph(int num_vertices, int num_edges, uint64_t seed) {
  Rng rng(seed);
  DirectedGraph graph(num_vertices);
  for (int e = 0; e < num_edges; ++e) {
    const int u =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_vertices)));
    int v = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_vertices - 1)));
    if (v >= u) ++v;
    graph.AddEdge(u, v, 0.5 + rng.UniformDouble());
  }
  return graph;
}

VertexSet RandomSide(int num_vertices, Rng& rng) {
  VertexSet side(static_cast<size_t>(num_vertices), 0);
  for (auto& bit : side) bit = rng.Bernoulli(0.5) ? 1 : 0;
  return side;
}

int64_t CountDiffering(const std::vector<double>& got,
                       const std::vector<double>& expected) {
  if (got.size() != expected.size()) {
    return static_cast<int64_t>(expected.size());
  }
  int64_t differing = 0;
  for (size_t q = 0; q < got.size(); ++q) {
    differing += std::memcmp(&got[q], &expected[q], sizeof(double)) != 0;
  }
  return differing;
}

StatusOr<std::unique_ptr<ScratchDir>> ScratchDir::Create(
    const std::string& parent, const std::string& prefix) {
  DCS_RETURN_IF_ERROR(MakeDirs(parent));
  std::string pattern = parent + "/" + prefix + "XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    return UnavailableError("mkdtemp " + pattern + ": " +
                            std::strerror(errno));
  }
  return std::unique_ptr<ScratchDir>(new ScratchDir(pattern));
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

Status MakeDirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  if (error) return UnavailableError("mkdir " + path + ": " + error.message());
  return OkStatus();
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code error;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        error);
  if (error) {
    return UnavailableError("copy " + from + " -> " + to + ": " +
                            error.message());
  }
  return OkStatus();
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.is_regular_file()) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

Status WorkerGuard::Spawn() {
  DCS_RETURN_IF_ERROR(Kill());
  DCS_ASSIGN_OR_RETURN(process_, SpawnWorker(binary_, endpoint_, options_));
  return OkStatus();
}

Status WorkerGuard::Kill() {
  if (!process_.alive()) return OkStatus();
  DCS_RETURN_IF_ERROR(KillWorker(process_, SIGKILL));
  return ReapWorker(process_, /*blocking=*/true);
}

double WorkerGuard::PeakRssMb() const {
  return process_.alive()
             ? ProcStatusMb(std::to_string(process_.pid), "VmHWM")
             : 0;
}

double ProcStatusMb(const std::string& pid, const std::string& field) {
  std::ifstream status("/proc/" + pid + "/status");
  const std::string prefix = field + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      // kB -> MB
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

ClusterClientOptions BenchClientOptions(uint64_t seed) {
  ClusterClientOptions options;
  options.replication = 1;
  options.seed = seed;
  options.transport.connect_timeout_ms = 500;
  options.transport.io_timeout_ms = 10000;
  options.transport.reconnect_base_ms = 1;
  options.transport.reconnect_cap_ms = 1;
  options.transport.max_connect_attempts = 1;
  return options;
}

Status AwaitHealthy(ClusterClient& client, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    DCS_RETURN_IF_ERROR(client.HealthCheck());
    if (client.worker_health(0) == ClusterClient::WorkerHealth::kHealthy) {
      return OkStatus();
    }
    if (Interrupted()) return UnavailableError("interrupted");
    if (Clock::now() > deadline) {
      return DeadlineExceededError("worker never answered a ping");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Window Window::Open(double seconds) {
  Window window;
  window.start = Clock::now();
  window.deadline = window.start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  window.bins = std::max(1, static_cast<int>(seconds));
  return window;
}

void Window::Spread(double units, Clock::time_point begin,
                    Clock::time_point end,
                    std::vector<double>& work_bins) const {
  work_bins.resize(static_cast<size_t>(bins), 0);
  const double width = bin_seconds();
  const double from = std::max(0.0, SecondsBetween(start, begin));
  const double to = SecondsBetween(start, end);
  if (to <= from) {  // an instantaneous completion
    const int bin = static_cast<int>(from / width);
    if (bin < bins) work_bins[static_cast<size_t>(bin)] += units;
    return;
  }
  const double rate = units / (to - from);
  for (int bin = static_cast<int>(from / width); bin < bins; ++bin) {
    const double overlap =
        std::min(to, (bin + 1) * width) - std::max(from, bin * width);
    if (overlap <= 0) break;
    work_bins[static_cast<size_t>(bin)] += rate * overlap;
  }
}

void SetEndToEnd(RunResult& result, const std::vector<double>& latencies_us,
                 double p, const Window& window,
                 const std::vector<double>& work_bins, double rss_mb,
                 double setup_s) {
  const TailSummary summary = Summarize(latencies_us, p);
  result.details.Set("latency_us", ToJson(summary));
  JsonValue bins = JsonValue::MakeArray();
  for (const double work : work_bins) bins.Append(work);
  result.details.Set("work_per_bin", std::move(bins));
  result.details.Set("bin_s", window.bin_seconds());
  result.end_to_end = EndToEnd{summary.median,
                               Median(work_bins) / window.bin_seconds(),
                               rss_mb, setup_s};
}

}  // namespace dcs::e2e
