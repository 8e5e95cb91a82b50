// Low-overhead runtime metrics: named counters, value distributions, and
// scoped wall-clock timers behind one process-wide registry.
//
// Every theorem in the paper bounds a *countable resource* — cut queries
// per decoded bit (Theorem 1.1), sketch bits vs Ω̃(n√β/ε) / Ω(nβ/ε²),
// local queries vs Õ(m/(ε²k)) (Theorem 5.7) — so the library counts those
// resources at runtime and tests assert the paper's bounds on the counts
// (tests/metrics_bounds_test.cc). Naming convention and the overhead
// budget are documented in DESIGN.md §8.
//
// Concurrency and cost model:
//  * Counters and distributions are sharded across kStripes cache-line-
//    aligned cells indexed by a per-thread stripe id, so concurrent
//    recording from the trial-parallelism layer never contends on one
//    cache line. All updates are relaxed atomics: totals are exact,
//    cross-metric consistency of a snapshot is best-effort.
//  * Registry lookups take a mutex; the DCS_METRIC_* macros cache the
//    looked-up reference in a function-local static, so steady-state cost
//    of a macro site is one atomic add.
//  * Per-edge-scale hot loops (IncrementalCutOracle::Flip, session
//    queries) do NOT call the registry per event: they tally into plain
//    struct members and flush one DCS_METRIC_ADD at object destruction.
//    Follow that pattern for anything hotter than ~1µs per event.
//
// Compile-time kill switch: configure with -DDCS_ENABLE_METRICS=OFF and
// every DCS_METRIC_* macro expands to a no-op — no registration, no
// allocation, no atomics (tests/util_metrics_test.cc asserts the registry
// stays empty). The registry API itself stays compiled so non-macro
// callers (snapshot consumers, the CLI) link in both configurations.
//
// Distributions track exact count/sum/min/max plus a 64-bucket log2
// histogram. ApproxPercentile does not interpolate: it returns the upper
// bound (2^b − 1) of the log2 bucket that holds the rank, clamped to
// [min, max]. A percentile is therefore exact only up to a factor of 2, and
// a p50 near a power of two can swing 2× between runs of a steady
// workload. Compare a stage before and after on mean() (the exact
// sum / count, printed as `mean` by --metrics-json), not on percentiles.

#ifndef DCS_UTIL_METRICS_H_
#define DCS_UTIL_METRICS_H_

#ifndef DCS_METRICS_ENABLED
#define DCS_METRICS_ENABLED 1
#endif

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.h"

namespace dcs::metrics {

// Number of per-thread shards per metric. Power of two.
inline constexpr size_t kStripes = 16;
// Log2 histogram buckets: bucket b counts values v with bit_width(v) == b
// (bucket 0 holds v <= 0).
inline constexpr size_t kNumBuckets = 64;

// Stable per-thread stripe index in [0, kStripes).
size_t ThreadStripeIndex();

// A named monotonic counter. Add is one relaxed atomic fetch_add on a
// thread-striped cache line; value() sums the stripes.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    cells_[ThreadStripeIndex()].value.fetch_add(delta,
                                                std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t value() const {
    int64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };
  std::array<Cell, kStripes> cells_;
};

// Point-in-time statistics of one distribution (also the diff type:
// count/sum/buckets subtract; min/max of a diff are taken from the later
// snapshot, since exact extrema of a window are not recoverable).
struct DistributionStats {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // 0 when count == 0
  int64_t max = 0;
  std::array<int64_t, kNumBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Approximate p-quantile (p in [0, 1]) from the log2 histogram: the
  // upper bound of the first bucket whose cumulative count reaches p,
  // clamped to [min, max]. Exact only up to the bucket's factor of 2.
  int64_t ApproxPercentile(double p) const;
};

// A distribution of int64 samples: exact count/sum/min/max + log2
// histogram, all thread-striped relaxed atomics.
class Distribution {
 public:
  Distribution() = default;
  Distribution(const Distribution&) = delete;
  Distribution& operator=(const Distribution&) = delete;

  void Record(int64_t value);

  DistributionStats stats() const;

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
    std::array<std::atomic<int64_t>, kNumBuckets> buckets{};
  };
  std::array<Cell, kStripes> cells_;
};

// A consistent-enough copy of every registered metric, diffable and
// serializable. Counter and distribution maps are keyed by metric name;
// std::map ordering makes the JSON deterministic.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, DistributionStats> distributions;

  // The change between `earlier` and this snapshot: counters and
  // distribution count/sum/buckets subtract (metrics absent from
  // `earlier` count from zero); distribution min/max are copied from this
  // snapshot (see DistributionStats).
  MetricsSnapshot DiffSince(const MetricsSnapshot& earlier) const;

  // {"counters": {...}, "distributions": {name: {count, sum, min, max,
  //  mean, p50, p90, p99}}}. Deterministic: keys sorted, numbers via the
  // util/json writer. Histograms are summarized, not dumped raw.
  JsonValue ToJson() const;
  std::string ToJsonString(int indent = 2) const;
};

// The process-wide registry. GetCounter/GetDistribution return references
// that stay valid for the life of the process (std::map nodes are stable);
// concurrent calls are serialized by a mutex — cache the reference (the
// DCS_METRIC_* macros do) on hot paths.
class Registry {
 public:
  static Registry& Get();

  Counter& GetCounter(std::string_view name);
  Distribution& GetDistribution(std::string_view name);

  MetricsSnapshot Snapshot() const;

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Distribution, std::less<>> distributions_;
};

// Records elapsed wall-clock nanoseconds into `dist` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Distribution& dist)
      : dist_(dist), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    dist_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
  }

 private:
  Distribution& dist_;
  std::chrono::steady_clock::time_point start_;
};

// Non-macro helpers for dynamically chosen metric names (e.g. per-stream-
// kind). The name must still be a long-lived string; prefer precomputed
// constants so the OFF configuration stays allocation-free at call sites.
inline void AddCount(std::string_view name, int64_t delta) {
#if DCS_METRICS_ENABLED
  Registry::Get().GetCounter(name).Add(delta);
#else
  (void)name;
  (void)delta;
#endif
}

inline void RecordValue(std::string_view name, int64_t value) {
#if DCS_METRICS_ENABLED
  Registry::Get().GetDistribution(name).Record(value);
#else
  (void)name;
  (void)value;
#endif
}

}  // namespace dcs::metrics

// Instrumentation macros. `name` must be a string literal (it is evaluated
// once and the metric reference cached in a function-local static).
#if DCS_METRICS_ENABLED

#define DCS_METRICS_CONCAT_INNER(a, b) a##b
#define DCS_METRICS_CONCAT(a, b) DCS_METRICS_CONCAT_INNER(a, b)

#define DCS_METRIC_ADD(name, delta)                                     \
  do {                                                                  \
    static ::dcs::metrics::Counter& dcs_metrics_cached_counter =        \
        ::dcs::metrics::Registry::Get().GetCounter(name);               \
    dcs_metrics_cached_counter.Add(delta);                              \
  } while (0)

#define DCS_METRIC_INC(name) DCS_METRIC_ADD(name, 1)

#define DCS_METRIC_RECORD(name, value)                                  \
  do {                                                                  \
    static ::dcs::metrics::Distribution& dcs_metrics_cached_dist =      \
        ::dcs::metrics::Registry::Get().GetDistribution(name);          \
    dcs_metrics_cached_dist.Record(value);                              \
  } while (0)

// Times the enclosing scope into distribution `name` (nanoseconds). Like
// ADD and RECORD, the distribution is looked up once per call site.
#define DCS_METRIC_TIMER(name)                                          \
  static ::dcs::metrics::Distribution& DCS_METRICS_CONCAT(              \
      dcs_metrics_timer_dist_, __LINE__) =                              \
      ::dcs::metrics::Registry::Get().GetDistribution(name);            \
  ::dcs::metrics::ScopedTimer DCS_METRICS_CONCAT(dcs_metrics_timer_,    \
                                                 __LINE__)(             \
      DCS_METRICS_CONCAT(dcs_metrics_timer_dist_, __LINE__))

#else  // !DCS_METRICS_ENABLED

// No-ops: arguments are not evaluated (sizeof is an unevaluated context),
// so metric-only expressions cost nothing and trigger no unused warnings.
#define DCS_METRIC_ADD(name, delta) \
  do {                              \
    (void)sizeof(name);             \
    (void)sizeof(delta);            \
  } while (0)
#define DCS_METRIC_INC(name) \
  do {                       \
    (void)sizeof(name);      \
  } while (0)
#define DCS_METRIC_RECORD(name, value) \
  do {                                 \
    (void)sizeof(name);                \
    (void)sizeof(value);               \
  } while (0)
#define DCS_METRIC_TIMER(name) \
  do {                         \
    (void)sizeof(name);        \
  } while (0)

#endif  // DCS_METRICS_ENABLED

#endif  // DCS_UTIL_METRICS_H_
