// ParallelFor, the trial-parallelism helper.
//
// Each call starts its own threads and joins them before it returns; there
// is no persistent pool. Loop indices are handed out through a single
// atomic counter, so every thread (including the calling one) pulls the
// next undone index until the range is drained — no work stealing.
// Determinism contract: callers make each iteration self-contained — a
// per-iteration Rng seeded as SubtaskSeed(base_seed, index), results in a
// slot owned by that index — so the outcome is bit-identical for every
// thread count, including the serial num_threads <= 1 fast path (which
// starts no thread at all).

#ifndef DCS_UTIL_THREAD_POOL_H_
#define DCS_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {

// Runs body(i) for every i in [0, count) on min(num_threads, count)
// threads: the caller plus that many minus one threads started for this
// call. Blocks until every index has run and every started thread has
// been joined. num_threads <= 1 is a plain serial loop on the caller.
inline void ParallelFor(int num_threads, int64_t count,
                        const std::function<void(int64_t)>& body) {
  DCS_CHECK_GE(count, 0);
  if (count == 0) return;
  DCS_METRIC_INC("threadpool.loop.started");
  DCS_METRIC_RECORD("threadpool.loop.tasks", count);
  DCS_METRIC_TIMER("threadpool.loop.duration_ns");
  if (num_threads <= 1 || count == 1) {
    for (int64_t i = 0; i < count; ++i) body(i);
    DCS_METRIC_ADD("threadpool.task.completed", count);
    return;
  }
  std::atomic<int64_t> next_index{0};
  const auto drain = [&] {
    // Indices claimed by this thread, flushed once so the claim loop stays
    // registry-free. The per-thread distribution is the load-balance
    // signal: a wide spread between p50 and max means one thread ran most
    // of the loop.
    int64_t claimed = 0;
    for (int64_t i = next_index.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next_index.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
      ++claimed;
    }
    DCS_METRIC_ADD("threadpool.task.completed", claimed);
    DCS_METRIC_RECORD("threadpool.drain.claimed", claimed);
  };
  // A jthread joins when destroyed, so every started thread is joined
  // before next_index and drain go away, also when body(i) throws on the
  // caller (the started threads then drain the rest of the range).
  const int64_t num_started = std::min<int64_t>(num_threads, count) - 1;
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<size_t>(num_started));
  for (int64_t t = 0; t < num_started; ++t) threads.emplace_back(drain);
  drain();
}

}  // namespace dcs

#endif  // DCS_UTIL_THREAD_POOL_H_
