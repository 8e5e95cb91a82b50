#include "util/random.h"

#include <algorithm>
#include <cmath>

namespace dcs {
namespace {

// splitmix64: used only to expand the user seed into xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (uint64_t& word : state_) word = SplitMix64(s);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::Next() {
  // xoshiro256++
  const uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  DCS_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInRange(int64_t lo, int64_t hi) {
  DCS_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  if (span == 0) return static_cast<int64_t>(Next());
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return UniformDouble() < p;
}

int64_t Rng::Binomial(int64_t n, double p) {
  DCS_CHECK_GE(n, 0);
  if (n == 0 || p <= 0) return 0;
  if (p >= 1) return n;
  // For small n, sum Bernoulli draws directly.
  if (n <= 64) {
    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) count += Bernoulli(p) ? 1 : 0;
    return count;
  }
  const double mean = static_cast<double>(n) * p;
  const double variance = mean * (1 - p);
  if (variance > 100.0) {
    // Normal approximation with continuity correction, clamped to [0, n].
    const double draw = mean + std::sqrt(variance) * Normal() + 0.5;
    if (draw <= 0) return 0;
    if (draw >= static_cast<double>(n)) return n;
    return static_cast<int64_t>(draw);
  }
  // Inversion by sequential search from the mode-adjacent start. The mean is
  // at most ~100 + small here, so this loop is short.
  const double q = 1 - p;
  const double ratio = p / q;
  double pmf = std::pow(q, static_cast<double>(n));  // P[X = 0]
  if (pmf <= 0) {
    // Underflow guard: fall back to the normal approximation.
    const double draw = mean + std::sqrt(variance) * Normal() + 0.5;
    if (draw <= 0) return 0;
    if (draw >= static_cast<double>(n)) return n;
    return static_cast<int64_t>(draw);
  }
  double cdf = pmf;
  const double u = UniformDouble();
  int64_t k = 0;
  while (cdf < u && k < n) {
    pmf *= ratio * static_cast<double>(n - k) / static_cast<double>(k + 1);
    cdf += pmf;
    ++k;
  }
  return k;
}

double Rng::Normal() {
  // Box–Muller. Draw u1 in (0, 1] to avoid log(0).
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

int Rng::RandomSign() { return (Next() & 1) ? 1 : -1; }

std::vector<int> Rng::RandomSubset(int universe, int k) {
  DCS_CHECK_GE(k, 0);
  DCS_CHECK_LE(k, universe);
  // Floyd's algorithm would avoid the O(universe) cost, but universes in
  // this library are small (<= millions) and a partial Fisher–Yates keeps
  // the distribution obviously uniform.
  std::vector<int> pool(universe);
  for (int i = 0; i < universe; ++i) pool[i] = i;
  for (int i = 0; i < k; ++i) {
    int j = i + static_cast<int>(UniformInt(static_cast<uint64_t>(universe - i)));
    std::swap(pool[i], pool[j]);
  }
  std::vector<int> subset(pool.begin(), pool.begin() + k);
  std::sort(subset.begin(), subset.end());
  return subset;
}

std::vector<uint8_t> Rng::RandomBinaryStringWithWeight(int length, int weight) {
  std::vector<uint8_t> bits(length, 0);
  for (int index : RandomSubset(length, weight)) bits[index] = 1;
  return bits;
}

std::vector<uint8_t> Rng::RandomBinaryString(int length) {
  std::vector<uint8_t> bits(length);
  for (int i = 0; i < length; ++i) bits[i] = static_cast<uint8_t>(Next() & 1);
  return bits;
}

std::vector<int8_t> Rng::RandomSignString(int length) {
  std::vector<int8_t> signs(length);
  for (int i = 0; i < length; ++i) {
    signs[i] = static_cast<int8_t>((Next() & 1) ? 1 : -1);
  }
  return signs;
}

int64_t JitteredBackoff(int64_t base, int exponent, int64_t cap,
                        double jitter, Rng& rng) {
  DCS_CHECK_GE(base, 1);
  DCS_CHECK_LE(base, cap);
  // base << exponent when that stays within cap, else cap (no overflow).
  const int64_t backoff =
      exponent < 63 && base <= (cap >> exponent) ? base << exponent : cap;
  if (jitter == 0 || backoff == 1) return backoff;
  const int64_t floor = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(backoff) * (1.0 - jitter)));
  return floor + static_cast<int64_t>(
                     rng.UniformInt(static_cast<uint64_t>(backoff - floor + 1)));
}

}  // namespace dcs
