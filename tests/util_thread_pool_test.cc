// ParallelFor: every index runs exactly once for any thread count, the
// serial fast path is exact, a call starts no more threads than it has
// indices, and it joins them even when the body throws.

#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/metrics.h"
#include "util/random.h"

namespace dcs {
namespace {

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    for (const int64_t count : {0, 1, 2, 7, 100, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(count));
      for (auto& h : hits) h.store(0);
      ParallelFor(threads, count, [&hits](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      });
      for (int64_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int64_t> sum{0};
  ParallelFor(16, 3, [&sum](int64_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ParallelForTest, SlotWritesAreDeterministic) {
  // The determinism contract of the trial runners: per-index seeds, results
  // written into per-index slots, identical output for every thread count.
  auto run = [](int threads) {
    std::vector<uint64_t> slots(257);
    ParallelFor(threads, static_cast<int64_t>(slots.size()), [&](int64_t i) {
      Rng rng(uint64_t{9000} ^ static_cast<uint64_t>(i));
      slots[static_cast<size_t>(i)] = rng.Next();
    });
    return slots;
  };
  const std::vector<uint64_t> serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(5), serial);
}

TEST(ParallelForTest, StragglerStressBackToBackGrowingLoops) {
  // Back-to-back loops with no pause, counts alternating between tiny and
  // growing: each call starts and joins its own threads, so no thread of
  // loop L may still be running (or claim an index) once loop L+1 starts.
  // Run it under -DDCS_ENABLE_SANITIZERS=thread for the full data-race
  // check (scripts/run_sanitizers.sh).
  constexpr int64_t kMaxCount = 2048;
  std::vector<std::atomic<int>> hits(kMaxCount);
  int64_t grown = 1;
  for (int round = 0; round < 600; ++round) {
    const int64_t count = (round % 2 == 0) ? grown : 1 + round % 3;
    for (int64_t i = 0; i < count; ++i) {
      hits[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
    }
    ParallelFor(8, count, [&hits](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "round=" << round << " count=" << count << " i=" << i;
    }
    if (round % 2 == 0) grown = grown >= kMaxCount / 2 ? 1 : grown * 2 + 1;
  }
}

TEST(ParallelForTest, ThrowOnCallerPropagatesAfterTheRangeDrains) {
  // The caller throws on the first index it claims; the started threads
  // hold their first index until then, so the caller always claims one.
  // The exception leaves ParallelFor only after the started threads have
  // run every other index and been joined.
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int64_t kCount = 256;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  std::atomic<int64_t> thrown_at{-1};
  EXPECT_THROW(ParallelFor(4, kCount,
                           [&](int64_t i) {
                             if (std::this_thread::get_id() == caller) {
                               thrown_at.store(i);
                               throw std::runtime_error("body");
                             }
                             while (thrown_at.load() < 0) {
                               std::this_thread::yield();
                             }
                             hits[static_cast<size_t>(i)].fetch_add(1);
                           }),
               std::runtime_error);
  ASSERT_GE(thrown_at.load(), 0);
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i == thrown_at ? 0 : 1)
        << "i=" << i;
  }
}

#if DCS_METRICS_ENABLED

TEST(ParallelForTest, StartsNoMoreThreadsThanIndices) {
  // Every thread that runs the claim loop records one threadpool.drain.claimed
  // sample, so the sample count is the number of threads the loop used: the
  // caller plus min(num_threads, count) - 1 started ones.
  const metrics::MetricsSnapshot before = metrics::Registry::Get().Snapshot();
  std::atomic<int64_t> sum{0};
  ParallelFor(8, 3, [&sum](int64_t i) { sum.fetch_add(i + 1); });
  const metrics::MetricsSnapshot diff =
      metrics::Registry::Get().Snapshot().DiffSince(before);
  EXPECT_EQ(sum.load(), 6);
  const metrics::DistributionStats& claimed =
      diff.distributions.at("threadpool.drain.claimed");
  EXPECT_EQ(claimed.count, 3);
  EXPECT_EQ(claimed.sum, 3);
  EXPECT_EQ(diff.counters.at("threadpool.task.completed"), 3);
}

#endif  // DCS_METRICS_ENABLED

}  // namespace
}  // namespace dcs
