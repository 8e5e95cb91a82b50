// bench_e2e's --trace run: the workload's seeded inputs replayed through
// each layer's public functions, called from the benchmark's own code,
// with one span per call (trace.h). README.md lists the per-layer metrics
// and the end-to-end metric each one should move.
//
// Every trace run measures every layer, so every per-layer metric is
// reported for every workload, as BENCHMARK.json's contract requires of a
// --trace 1 run. The RPC layers get the workload's own query shape
// (query_hot's for ingest, which has no RPC path; write-sized graphs for
// register and restart); the store, worker and client layers always get
// the restart workload's objects, and the ingest and sketch layers
// ingest's streams. Compare a per-layer number across commits on one
// workload, never across workloads.
//
// The residuals and overheads need an untraced base: it is the timed
// workload's own code (RunQuery, RunIngest) run for a quarter of the
// window.

#ifndef DCS_BENCH_E2E_LAYERS_H_
#define DCS_BENCH_E2E_LAYERS_H_

#include <string>

#include "e2e/harness.h"
#include "e2e/trace.h"

namespace dcs::e2e {

RunResult RunLayers(const Options& options, const std::string& dir,
                    Trace& trace);

}  // namespace dcs::e2e

#endif  // DCS_BENCH_E2E_LAYERS_H_
