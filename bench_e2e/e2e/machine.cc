#include "e2e/machine.h"

#include <sched.h>

#include <fstream>
#include <string>

#include "bench/json_writer.h"
#include "util/simd.h"

namespace dcs::e2e {
namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

int64_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

JsonValue MachineBlock() {
  JsonValue machine = bench::MachineBlock();
  machine.Set("online_cpus", OnlineCpus());
  machine.Set("cpu_model", CpuModel());
  machine.Set("simd_path", simd::DispatchPathName(simd::ActivePath()));
  machine.Set("build_type", DCS_BENCH_BUILD_TYPE);
  machine.Set("build_flags", DCS_BENCH_BUILD_FLAGS);
  machine.Set("metrics_enabled", DCS_METRICS_ENABLED != 0);
  return machine;
}

bool IsDebugBuild() { return std::string(DCS_BENCH_BUILD_TYPE) == "Debug"; }

}  // namespace dcs::e2e
