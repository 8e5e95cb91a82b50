// The host-speed reference that bench_e2e scales its end-to-end metrics by.
//
// The benchmark runs on shared virtual machines whose speed drifts by tens
// of percent over minutes, and every workload drifts with it: in the
// calibration behind BENCHMARK.json (README.md, "Noise and bounds") a run's
// latency and throughput correlated with this kernel's time with a log-log
// slope near 1. So a timed run times the kernel just before its window
// opens and just after it closes, while the system under test idles, and
// reports every time as measured ÷ slowdown and every rate × slowdown,
// where slowdown = the mean of the two ÷ kNominalReferenceMs: what the run
// would have read on a host that runs the kernel in that time.
//
// The kernel is benchmark code that no code of the repository runs: a
// dependent multiply-xor chain (core speed), then one-byte round trips
// over a pair of pipes between two threads (the cross-CPU wake-ups every
// RPC and every seal pays). Only a system under test that burns CPU while
// idle could move it.

#ifndef DCS_BENCH_E2E_HOST_SPEED_H_
#define DCS_BENCH_E2E_HOST_SPEED_H_

#include "util/status.h"

namespace dcs::e2e {

// A round figure near the kernel's median time on the calibration host
// (52.6 ms over the 200 timings of README.md's calibration).
inline constexpr double kNominalReferenceMs = 50.0;

// Times the kernel nine times and returns the median, in ms.
StatusOr<double> MeasureReferenceMs();

}  // namespace dcs::e2e

#endif  // DCS_BENCH_E2E_HOST_SPEED_H_
