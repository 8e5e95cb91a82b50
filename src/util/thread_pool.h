// A small fixed thread pool and the ParallelFor trial-parallelism helper.
//
// The pool is deliberately work-stealing-free: ParallelFor hands out loop
// indices through a single atomic counter, so every worker (including the
// calling thread) pulls the next undone index until the range is drained.
// Determinism contract: callers make each iteration self-contained — a
// per-iteration Rng seeded as SubtaskSeed(base_seed, index), results in a
// slot owned by that index — so the outcome is bit-identical for every
// thread count, including the serial num_threads <= 1 fast path (which
// touches no threading machinery at all).

#ifndef DCS_UTIL_THREAD_POOL_H_
#define DCS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {

// A fixed set of worker threads executing one parallel loop at a time.
// ParallelFor may only be called from one thread at a time (no nesting,
// no concurrent loops on the same pool).
class ThreadPool {
 public:
  // Spawns num_threads - 1 workers (the caller participates as the last
  // worker). Requires num_threads >= 1.
  explicit ThreadPool(int num_threads) : num_threads_(num_threads) {
    DCS_CHECK_GE(num_threads, 1);
    workers_.reserve(static_cast<size_t>(num_threads - 1));
    for (int i = 0; i + 1 < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { Shutdown(); }

  // Drain-then-stop: waits for any in-flight ParallelFor epoch to complete,
  // then stops and joins the workers. This is the SIGTERM path — a worker
  // process drains its current shard batch instead of aborting mid-apply.
  // Callable from a thread other than the loop caller; idempotent (a second
  // call returns once the first has claimed the workers). ParallelFor after
  // Shutdown still runs every iteration, serially on the calling thread.
  void Shutdown() {
    std::vector<std::thread> to_join;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      loop_done_.wait(
          lock, [this] { return !loop_open_ && active_drainers_ == 0; });
      if (shutdown_) return;
      shutdown_ = true;
      to_join.swap(workers_);
    }
    wake_workers_.notify_all();
    for (std::thread& worker : to_join) worker.join();
  }

  int num_threads() const { return num_threads_; }

  // Runs body(i) for every i in [0, count), distributing indices across all
  // threads; blocks until the whole range is done.
  //
  // Each call is one *epoch* (generation_). Loop state (body_/count_/
  // next_index_/pending_) is only ever written while the previous epoch is
  // closed AND quiescent: workers claim indices only between marking
  // themselves as active drainers (under the mutex, after observing an open
  // epoch) and unmarking (under the mutex), and ParallelFor does not return
  // until active_drainers_ == 0. A straggler that claimed i >= count_ in
  // epoch N therefore cannot race the reset for epoch N+1 — the reset
  // happens-after it left DrainIndices, and it re-reads the generation
  // before it can ever claim again. (The previous version reset the atomics
  // while such a straggler could still be between its fetch_add and the
  // count_ load, letting one stale index run twice in the new loop and the
  // loop return before every index had run.)
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& body) {
    DCS_CHECK_GE(count, 0);
    if (count == 0) return;
    DCS_METRIC_INC("threadpool.loop.started");
    DCS_METRIC_RECORD("threadpool.loop.tasks", count);
    DCS_METRIC_TIMER("threadpool.loop.duration_ns");
    if (num_threads_ == 1 || count == 1) {
      for (int64_t i = 0; i < count; ++i) body(i);
      DCS_METRIC_ADD("threadpool.task.completed", count);
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (shutdown_) {
        // Post-Shutdown: the workers are gone; degrade to a serial loop so
        // late-arriving work still completes during drain.
        lock.unlock();
        for (int64_t i = 0; i < count; ++i) body(i);
        DCS_METRIC_ADD("threadpool.task.completed", count);
        return;
      }
      // Closed + quiescent (guaranteed by the wait below on the previous
      // call): safe to install the new epoch's state.
      body_ = &body;
      count_ = count;
      pending_.store(count, std::memory_order_relaxed);
      next_index_.store(0, std::memory_order_relaxed);
      loop_open_ = true;
      ++generation_;
    }
    wake_workers_.notify_all();
    DrainIndices();
    // Every index is claimed; wait for stragglers still inside body(i) or
    // mid-claim, then close the epoch so late wakers go back to sleep.
    std::unique_lock<std::mutex> lock(mutex_);
    loop_done_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0 &&
             active_drainers_ == 0;
    });
    loop_open_ = false;
    // A Shutdown() waiter keys on loop_open_; the waits above consumed any
    // notifications, so signal the close explicitly.
    loop_done_.notify_all();
  }

 private:
  void DrainIndices() {
    // Indices claimed by this drainer in this epoch; flushed once below so
    // the claim loop stays registry-free. The per-drainer distribution is
    // the pool's load-balance/straggler signal: a wide spread between p50
    // and max means one thread ran most of the loop.
    int64_t claimed = 0;
    while (true) {
      const int64_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) break;
      (*body_)(i);
      ++claimed;
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_lock<std::mutex> lock(mutex_);
        loop_done_.notify_all();
      }
    }
    DCS_METRIC_ADD("threadpool.task.completed", claimed);
    DCS_METRIC_RECORD("threadpool.drain.claimed", claimed);
  }

  void WorkerLoop() {
    int64_t seen_generation = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        // Claiming is only legal inside an open epoch: a worker that slept
        // through epoch N must not start draining after N closed, or it
        // would race the state reset for epoch N+1.
        wake_workers_.wait(lock, [this, seen_generation] {
          return shutdown_ ||
                 (generation_ != seen_generation && loop_open_);
        });
        if (shutdown_) return;
        seen_generation = generation_;
        ++active_drainers_;
      }
      DCS_METRIC_INC("threadpool.worker.woken");
      DrainIndices();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        --active_drainers_;
      }
      loop_done_.notify_all();
    }
  }

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable loop_done_;
  bool shutdown_ = false;
  bool loop_open_ = false;
  int64_t generation_ = 0;
  int active_drainers_ = 0;

  // Written only under mutex_ while the epoch is closed and quiescent; read
  // by drainers, which synchronized with those writes when they observed
  // the open epoch under mutex_.
  const std::function<void(int64_t)>* body_ = nullptr;
  int64_t count_ = 0;
  // Each hot atomic gets its own cache line: next_index_ takes a
  // read-modify-write from every claim and pending_ one per retire —
  // sharing a line with each other (or with the mutex) made every claim a
  // coherence miss for all other workers.
  alignas(64) std::atomic<int64_t> next_index_{0};
  alignas(64) std::atomic<int64_t> pending_{0};
};

// One-shot helper used by the trial runners and bench drivers: runs body(i)
// for i in [0, count) on `num_threads` threads. num_threads <= 1 is a plain
// serial loop with zero threading overhead.
inline void ParallelFor(int num_threads, int64_t count,
                        const std::function<void(int64_t)>& body) {
  DCS_CHECK_GE(count, 0);
  if (num_threads <= 1 || count <= 1) {
    if (count == 0) return;
    DCS_METRIC_INC("threadpool.loop.started");
    DCS_METRIC_RECORD("threadpool.loop.tasks", count);
    DCS_METRIC_TIMER("threadpool.loop.duration_ns");
    for (int64_t i = 0; i < count; ++i) body(i);
    DCS_METRIC_ADD("threadpool.task.completed", count);
    return;
  }
  ThreadPool pool(num_threads);
  pool.ParallelFor(count, body);
}

}  // namespace dcs

#endif  // DCS_UTIL_THREAD_POOL_H_
