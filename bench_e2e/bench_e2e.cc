// bench_e2e — the end-to-end benchmark of the cut-query, write/restart and
// ingest paths (README.md). One process generates all load: it drives real
// dcs_server workers through ClusterClient, and an in-process
// StreamIngestor.
//
//   bench_e2e --workload query_hot --seed 1 --seconds 10 --trace 0
//             --work-dir .bench_build/run
//
// --trace 0 times the workload end to end and reports the end-to-end
// metrics, scaled to the reference host speed (e2e/host_speed.h); the
// values as measured are in the details line. --trace 1 replays the
// workload's seeded inputs through each layer's public functions instead,
// reports the per-layer metrics as measured, and writes its spans to
// <work-dir>/trace-<workload>-<seed>.json.
//
// Standard output: the machine block, one line per metric, and as its last
// line {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 every
// check passed; 1 a check failed or the run broke; 2 a usage error or a
// Debug build.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "e2e/harness.h"
#include "e2e/host_speed.h"
#include "e2e/layers.h"
#include "e2e/machine.h"
#include "e2e/trace.h"
#include "e2e/workloads.h"

namespace dcs::e2e {
namespace {

constexpr const char* kWorkloads[] = {"query_hot", "query_cold", "register",
                                      "restart", "ingest"};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload "
               "query_hot|query_cold|register|restart|ingest --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               problem.c_str());
  std::exit(2);
}

Options ParseFlags(int argc, char** argv) {
  Options options;
  options.server_binary = DCS_SERVER_PATH;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = false;
      for (const char* name : kWorkloads) have_workload |= value == name;
      if (!have_workload) Usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || errno != 0) {
        Usage("bad --seed '" + value + "'");
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 600) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (options.work_dir.empty()) Usage("--work-dir is required");
  return options;
}

RunResult Run(const Options& options, const std::string& dir) {
  if (options.trace) {
    Trace trace;
    RunResult result = RunLayers(options, dir, trace);
    const std::string path = options.work_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    const Status written = trace.WriteChromeTrace(path);
    if (!written.ok()) result.Violation(written.ToString());
    result.details.Set("trace_file", path);
    result.details.Set("spans", static_cast<int64_t>(trace.spans().size()));
    return result;
  }
  const std::string& w = options.workload;
  if (w == "query_hot") return RunQuery(options, kQueryHot, dir);
  if (w == "query_cold") return RunQuery(options, kQueryCold, dir);
  if (w == "register") return RunRegister(options, dir);
  if (w == "restart") return RunRestart(options, dir);
  return RunIngest(options);
}

int Main(int argc, char** argv) {
  const Options options = ParseFlags(argc, argv);
  std::printf("bench_e2e machine %s\n", MachineBlock().Dump().c_str());
  if (IsDebugBuild()) {
    std::fprintf(stderr, "bench_e2e: refusing to time a Debug build\n");
    return 2;
  }
  InstallInterruptHandlers();
  RunResult result;
  {
    auto scratch = ScratchDir::Create(options.work_dir, "dcs_bench_e2e_");
    if (scratch.ok()) {
      result = Run(options, (*scratch)->path());
    } else {
      result.Violation(scratch.status().ToString());
    }
  }  // scratch files and any worker are gone before the result prints
  if (result.end_to_end && result.reference_ms.size() == 2) {
    // > 1 on a host slower than the calibration host.
    const double slowdown =
        (result.reference_ms[0] + result.reference_ms[1]) / 2 /
        kNominalReferenceMs;
    const EndToEnd& raw = *result.end_to_end;
    result.Add("latency_p50_us", raw.latency_p50_us / slowdown, "us");
    result.Add("throughput_per_s", raw.throughput_per_s * slowdown, "1/s");
    result.Add("peak_rss_mb", raw.peak_rss_mb, "MB");
    result.Add("setup_s", raw.setup_s / slowdown, "s");
    JsonValue measured = JsonValue::MakeObject();
    measured.Set("latency_p50_us", raw.latency_p50_us);
    measured.Set("throughput_per_s", raw.throughput_per_s);
    measured.Set("setup_s", raw.setup_s);
    result.details.Set("as_measured", std::move(measured));
    result.details.Set("host_slowdown", slowdown);
    JsonValue reference = JsonValue::MakeArray();
    for (const double ms : result.reference_ms) reference.Append(ms);
    result.details.Set("reference_ms", std::move(reference));
  }
  if (Interrupted()) result.Violation("interrupted");
  if (result.attempted == 0) result.Violation("no operation was attempted");

  JsonValue metrics = JsonValue::MakeObject();
  for (const Metric& metric : result.metrics) {
    std::printf("  %-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    metrics.Set(metric.name, std::move(entry));
  }
  std::printf("bench_e2e details %s\n", result.details.Dump().c_str());
  for (const std::string& violation : result.violations) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", violation.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "bench_e2e: not reported: %s\n", problem.c_str());
  }
  JsonValue line = JsonValue::MakeObject();
  line.Set("correct", result.correct());
  line.Set("attempted", result.attempted);
  line.Set("failed", result.failed);
  line.Set("metrics", std::move(metrics));
  std::printf("%s\n", line.Dump().c_str());
  return result.correct() && result.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dcs::e2e

int main(int argc, char** argv) { return dcs::e2e::Main(argc, argv); }
