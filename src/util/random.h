// Deterministic pseudo-random number generation.
//
// All randomized components in the library take an explicit `Rng&` so that
// every test, benchmark, and experiment is reproducible from a seed. The
// generator is xoshiro256++ seeded through splitmix64, which is fast,
// high-quality, and has a stable cross-platform output sequence (unlike
// std::mt19937 + std::uniform_int_distribution, whose mapping is
// implementation-defined).

#ifndef DCS_UTIL_RANDOM_H_
#define DCS_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace dcs {

// A seeded deterministic random number generator.
//
// Not thread-safe; use one instance per thread. Copyable so that a stream
// can be forked ("snapshotted") when an experiment needs to replay draws.
class Rng {
 public:
  // Seeds the generator. Different seeds give independent-looking streams.
  explicit Rng(uint64_t seed);

  Rng(const Rng& other) = default;
  Rng& operator=(const Rng& other) = default;

  // Returns the next raw 64-bit output.
  uint64_t Next();

  // Returns a uniformly random integer in [0, bound). Requires bound > 0.
  uint64_t UniformInt(uint64_t bound);

  // Returns a uniformly random integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInRange(int64_t lo, int64_t hi);

  // Returns a uniformly random double in [0, 1).
  double UniformDouble();

  // Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Returns a Binomial(n, p) draw. O(n) for small n, otherwise uses a
  // normal approximation only when n*p*(1-p) is large; exact inversion for
  // small means. Always in [0, n].
  int64_t Binomial(int64_t n, double p);

  // Returns a standard normal draw (Box–Muller, no caching).
  double Normal();

  // Returns a uniformly random sign: +1 or -1.
  int RandomSign();

  // Fisher–Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  // Returns a uniformly random subset of {0, ..., universe-1} of size k
  // (sorted ascending). Requires k <= universe.
  std::vector<int> RandomSubset(int universe, int k);

  // Returns a uniformly random binary string of length `length` with exactly
  // `weight` ones. Requires weight <= length.
  std::vector<uint8_t> RandomBinaryStringWithWeight(int length, int weight);

  // Returns a uniformly random binary string of length `length`.
  std::vector<uint8_t> RandomBinaryString(int length);

  // Returns a uniformly random +/-1 string of length `length`.
  std::vector<int8_t> RandomSignString(int length);

 private:
  uint64_t state_[4];
};

// One capped exponential backoff with equal jitter, the retry policy of
// ReliableLink's retransmission rounds and ConnectWithBackoff's reconnects:
// b = min(base << exponent, cap), then, when jitter > 0 and b > 1, one draw
// from `rng` uniform in [max(1, floor((1 - jitter) * b)), b]. The floor
// keeps at least one unit of wait, so a retry is never a hot spin.
// Requires 1 <= base <= cap, exponent >= 0 and jitter in [0, 1].
int64_t JitteredBackoff(int64_t base, int exponent, int64_t cap,
                        double jitter, Rng& rng);

// Derives the seed for independent subtask `index` (a trial, repetition, or
// probe batch) of a run seeded with `base_seed`. The splitmix64 finalizer
// decorrelates the pair: a plain `base_seed ^ index` or `base_seed + index`
// would map nearby base seeds to the *same set* of per-subtask streams
// (merely permuted), making order-invariant aggregates identical across
// seeds.
inline uint64_t SubtaskSeed(uint64_t base_seed, int64_t index) {
  uint64_t z = base_seed +
               0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace dcs

#endif  // DCS_UTIL_RANDOM_H_
