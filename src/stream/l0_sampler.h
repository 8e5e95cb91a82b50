// ℓ₀-sampling over dynamic integer vectors.
//
// Substrate for the AGM graph sketches [AGM12] — the linear-measurement
// graph sketching result the paper's introduction builds its database
// motivation on. An L0Sampler maintains O(log U) linear measurements of a
// dynamic vector a ∈ ℤ^U under coordinate updates a_i += Δ (insertions and
// deletions), and can report some coordinate with a_i ≠ 0 with constant
// success probability.
//
// Construction: per level j, coordinates are subsampled with probability
// 2^{-j} by a seeded hash, and each level keeps a 1-sparse recovery triple
//   (ℓ, z, p) = (Σ a_i, Σ a_i·i, Σ a_i·r^i mod q)
// over the surviving coordinates. A level that is exactly 1-sparse
// reproduces its coordinate as i = z/ℓ and verifies with the fingerprint p
// (false positives with probability O(U/q), q = 2^61 − 1). Queries scan
// levels from the sparsest.
//
// Everything is linear in the vector, so samplers over disjoint updates
// can be merged by addition — the property the AGM sketch exploits.
//
// The per-level triple is a plain 32-byte L0Cell, and the arithmetic on a
// run of cells (one sampler's levels) is exposed as free functions, so the
// AGM sketch can keep all of its samplers in one flat cell array and share
// every line of the update/merge/recovery code with L0Sampler.

#ifndef DCS_STREAM_L0_SAMPLER_H_
#define DCS_STREAM_L0_SAMPLER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/check.h"

namespace dcs {

// A recovered nonzero coordinate.
struct L0Sample {
  int64_t index = 0;
  int64_t value = 0;  // the (nonzero) coordinate value
};

// --- Arithmetic mod the Mersenne prime q = 2^61 − 1. ---

inline constexpr uint64_t kL0Modulus = (1ULL << 61) - 1;

// a·b mod q via a 128-bit product (a, b < q).
inline uint64_t MulMod(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  const uint64_t low = static_cast<uint64_t>(product & kL0Modulus);
  const uint64_t high = static_cast<uint64_t>(product >> 61);
  uint64_t result = low + high;
  if (result >= kL0Modulus) result -= kL0Modulus;
  return result;
}

// base^exponent mod q by square-and-multiply.
uint64_t PowMod(uint64_t base, uint64_t exponent);

// The fingerprint contribution delta·power mod q of the update a_i += delta,
// where power = r^i mod q is in [1, q). The ±1 updates of the AGM sketch
// take the fast path (power or q − power) with no division or multiply.
inline uint64_t FingerprintTerm(int64_t delta, uint64_t power) {
  if (delta == 1) return power;
  if (delta == -1) return kL0Modulus - power;
  int64_t reduced = delta % static_cast<int64_t>(kL0Modulus);
  if (reduced < 0) reduced += static_cast<int64_t>(kL0Modulus);
  return MulMod(static_cast<uint64_t>(reduced), power);
}

// SplitMix64-style seeded mixer: the level hash and the base derivation.
uint64_t Hash64(uint64_t x, uint64_t seed);

// Fingerprint base r ∈ [2, q) of the samplers built from `seed`.
uint64_t FingerprintBase(uint64_t seed);

// Levels a sampler over [0, universe) keeps: 3 + ceil(log2 universe).
int L0LevelCount(int64_t universe);

// Deepest level (< `levels`) whose subsampling keeps `index`: the number of
// trailing zeros of the seeded hash, clamped.
int L0LevelOf(int64_t index, uint64_t seed, int levels);

// --- One level's 1-sparse recovery triple. ---

struct L0Cell {
  __int128 weighted = 0;     // Σ a_i·i
  int64_t sum = 0;           // Σ a_i
  uint64_t fingerprint = 0;  // Σ a_i·r^i mod q (values mod q)

  // a_index += delta; `term` is FingerprintTerm(delta, r^index).
  void Add(int64_t index, int64_t delta, uint64_t term) {
    sum += delta;
    weighted += static_cast<__int128>(delta) * index;
    fingerprint += term;
    if (fingerprint >= kL0Modulus) fingerprint -= kL0Modulus;
  }

  void MergeFrom(const L0Cell& other) {
    sum += other.sum;
    weighted += other.weighted;
    fingerprint += other.fingerprint;
    if (fingerprint >= kL0Modulus) fingerprint -= kL0Modulus;
  }

  // True if no updates survive (the zero vector, whp).
  bool IsZero() const { return sum == 0 && weighted == 0 && fingerprint == 0; }

  // If the residual vector is exactly 1-sparse, returns it (whp correct;
  // verified against the fingerprint under base `base`). Otherwise nullopt.
  std::optional<L0Sample> Recover(uint64_t base) const;

  // Folds (sum, weighted low, weighted high, fingerprint) into an FNV-style
  // running hash. Equal state — and only that, up to hash collisions —
  // folds identically. Inline: the epoch seal folds every cell it sums.
  void AppendDigest(uint64_t& digest) const {
    constexpr uint64_t kPrime = 1099511628211ULL;  // FNV-1a 64-bit prime
    const auto fold = [&digest](uint64_t word) {
      digest = (digest ^ word) * kPrime;
    };
    const auto wide = static_cast<unsigned __int128>(weighted);
    fold(static_cast<uint64_t>(sum));
    fold(static_cast<uint64_t>(wide));
    fold(static_cast<uint64_t>(wide >> 64));
    fold(fingerprint);
  }
};
static_assert(sizeof(L0Cell) == 32);

// --- Runs of cells: one sampler's levels, shallowest first. ---

// Adds `from` into `into` cell by cell (equal lengths).
void MergeCells(std::span<L0Cell> into, std::span<const L0Cell> from);

// Some nonzero coordinate, trying the deepest (sparsest) level first.
std::optional<L0Sample> SampleCells(std::span<const L0Cell> levels,
                                    uint64_t base);

// True iff every cell reads zero.
bool CellsAppearZero(std::span<const L0Cell> cells);

// Folds every cell, in order, into `digest`.
void AppendCellsDigest(std::span<const L0Cell> cells, uint64_t& digest);

// Exact 1-sparse recovery over a (sub)vector.
class OneSparseRecovery {
 public:
  // `fingerprint_base` must be in [2, kModulus).
  explicit OneSparseRecovery(uint64_t fingerprint_base);

  // Applies a_i += delta.
  void Update(int64_t index, int64_t delta);

  // Adds another structure built with the same base.
  void MergeFrom(const OneSparseRecovery& other);

  // See L0Cell::AppendDigest.
  void AppendDigest(uint64_t& digest) const { cell_.AppendDigest(digest); }

  bool IsZero() const { return cell_.IsZero(); }

  std::optional<L0Sample> Recover() const {
    return cell_.Recover(fingerprint_base_);
  }

  static constexpr uint64_t kModulus = kL0Modulus;

 private:
  uint64_t fingerprint_base_;
  L0Cell cell_;
};

// The full multi-level sampler.
class L0Sampler {
 public:
  // Samples over coordinate universe [0, universe). The seed fixes both
  // the level hash and the fingerprint base; samplers must share a seed
  // (and universe) to be mergeable.
  L0Sampler(int64_t universe, uint64_t seed);

  void Update(int64_t index, int64_t delta);
  void MergeFrom(const L0Sampler& other);

  // Folds all level states into `digest` (see L0Cell::AppendDigest).
  void AppendDigest(uint64_t& digest) const {
    AppendCellsDigest(levels_, digest);
  }

  // Some nonzero coordinate of the maintained vector, or nullopt if the
  // vector is zero or sampling failed at every level (constant failure
  // probability for nonzero vectors).
  std::optional<L0Sample> Sample() const {
    return SampleCells(levels_, base_);
  }

  // True iff every level reads zero (so the vector is zero whp).
  bool AppearsZero() const { return CellsAppearZero(levels_); }

  int64_t universe() const { return universe_; }
  uint64_t seed() const { return seed_; }
  int levels() const { return static_cast<int>(levels_.size()); }

  // Size of the maintained measurements in bits (3 words per level).
  int64_t SizeInBits() const {
    return static_cast<int64_t>(levels_.size()) * 3 * 64;
  }

 private:
  int64_t universe_;
  uint64_t seed_;
  uint64_t base_;
  std::vector<L0Cell> levels_;
};

}  // namespace dcs

#endif  // DCS_STREAM_L0_SAMPLER_H_
