// Machine and build identity, printed before every bench_e2e result so a
// number is never read without the hardware and build that produced it.

#ifndef DCS_BENCH_E2E_MACHINE_H_
#define DCS_BENCH_E2E_MACHINE_H_

#include "util/json.h"

namespace dcs::e2e {

// bench/json_writer.h's MachineBlock() ("hardware_concurrency") plus
// "online_cpus" (sched_getaffinity), "cpu_model", "simd_path",
// "build_type", "build_flags" and "metrics_enabled".
JsonValue MachineBlock();

// True when the binary was configured with CMAKE_BUILD_TYPE=Debug, whose
// timings mean nothing.
bool IsDebugBuild();

}  // namespace dcs::e2e

#endif  // DCS_BENCH_E2E_MACHINE_H_
