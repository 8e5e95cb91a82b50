// The one latency summary every bench_e2e workload reports: the median and
// a tail percentile of the same samples, with the sample count.
//
// Both come from util/stats Percentile (linear interpolation between order
// statistics). The tail is refused — null plus a reason — unless at least
// kMinBeyond samples lie strictly above it: a p99 over 300 samples is the
// opinion of three requests, and a benchmark that reported it anyway would
// flag noise as regressions.

#ifndef DCS_BENCH_E2E_PERCENTILE_H_
#define DCS_BENCH_E2E_PERCENTILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.h"

namespace dcs::e2e {

inline constexpr int64_t kMinBeyond = 10;

struct TailSummary {
  int64_t samples = 0;
  double median = 0;
  double p = 0;               // the requested percentile, in [0, 100]
  std::optional<double> tail;  // the p-th percentile; nullopt when refused
  int64_t beyond = 0;          // samples strictly greater than the tail
  std::string reason;          // why `tail` is nullopt
};

// Summarizes `samples` at percentile `p`. An empty input has median 0 and
// a refused tail.
TailSummary Summarize(const std::vector<double>& samples, double p);

// {"samples": n, "p50": m, "p<p>": tail or null, "beyond": k,
//  "reason": "..." (only when refused)}.
JsonValue ToJson(const TailSummary& summary);

}  // namespace dcs::e2e

#endif  // DCS_BENCH_E2E_PERCENTILE_H_
