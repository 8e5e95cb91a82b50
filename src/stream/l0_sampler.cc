#include "stream/l0_sampler.h"

#include <bit>

namespace dcs {

uint64_t PowMod(uint64_t base, uint64_t exponent) {
  uint64_t result = 1;
  uint64_t power = base;
  while (exponent > 0) {
    if (exponent & 1) result = MulMod(result, power);
    power = MulMod(power, power);
    exponent >>= 1;
  }
  return result;
}

uint64_t Hash64(uint64_t x, uint64_t seed) {
  x += seed + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t FingerprintBase(uint64_t seed) {
  return 2 + Hash64(seed, 0x5eedULL) % (kL0Modulus - 3);
}

int L0LevelCount(int64_t universe) {
  int level_count = 3;
  while ((static_cast<int64_t>(1) << (level_count - 3)) < universe) {
    ++level_count;
  }
  return level_count;
}

int L0LevelOf(int64_t index, uint64_t seed, int levels) {
  const uint64_t h = Hash64(static_cast<uint64_t>(index), seed);
  const int trailing = h == 0 ? 64 : std::countr_zero(h);
  return trailing < levels - 1 ? trailing : levels - 1;
}

std::optional<L0Sample> L0Cell::Recover(uint64_t base) const {
  if (sum == 0) return std::nullopt;
  __int128 index_wide = 0;
  if (weighted >= INT64_MIN && weighted <= INT64_MAX && sum != -1) {
    // The common case in 64-bit arithmetic (same truncating semantics;
    // sum = −1 is excluded because INT64_MIN / −1 overflows).
    const int64_t narrow = static_cast<int64_t>(weighted);
    if (narrow % sum != 0) return std::nullopt;
    index_wide = narrow / sum;
  } else {
    if (weighted % sum != 0) return std::nullopt;
    index_wide = weighted / sum;
  }
  if (index_wide < 0 || index_wide > static_cast<__int128>(INT64_MAX)) {
    return std::nullopt;
  }
  const int64_t index = static_cast<int64_t>(index_wide);
  // Verify: a 1-sparse vector v·e_i has fingerprint v·r^i.
  const uint64_t expected =
      FingerprintTerm(sum, PowMod(base, static_cast<uint64_t>(index)));
  if (expected != fingerprint) return std::nullopt;
  return L0Sample{index, sum};
}

void MergeCells(std::span<L0Cell> into, std::span<const L0Cell> from) {
  DCS_CHECK_EQ(into.size(), from.size());
  for (size_t j = 0; j < into.size(); ++j) into[j].MergeFrom(from[j]);
}

std::optional<L0Sample> SampleCells(std::span<const L0Cell> levels,
                                    uint64_t base) {
  // Deepest (sparsest) levels first: the first recoverable level wins.
  for (size_t j = levels.size(); j-- > 0;) {
    const std::optional<L0Sample> sample = levels[j].Recover(base);
    if (sample.has_value()) return sample;
  }
  return std::nullopt;
}

bool CellsAppearZero(std::span<const L0Cell> cells) {
  for (const L0Cell& cell : cells) {
    if (!cell.IsZero()) return false;
  }
  return true;
}

void AppendCellsDigest(std::span<const L0Cell> cells, uint64_t& digest) {
  for (const L0Cell& cell : cells) cell.AppendDigest(digest);
}

OneSparseRecovery::OneSparseRecovery(uint64_t fingerprint_base)
    : fingerprint_base_(fingerprint_base) {
  DCS_CHECK_GE(fingerprint_base, 2u);
  DCS_CHECK_LT(fingerprint_base, kModulus);
}

void OneSparseRecovery::Update(int64_t index, int64_t delta) {
  DCS_CHECK_GE(index, 0);
  cell_.Add(index, delta,
            FingerprintTerm(delta, PowMod(fingerprint_base_,
                                          static_cast<uint64_t>(index))));
}

void OneSparseRecovery::MergeFrom(const OneSparseRecovery& other) {
  DCS_CHECK_EQ(fingerprint_base_, other.fingerprint_base_);
  cell_.MergeFrom(other.cell_);
}

L0Sampler::L0Sampler(int64_t universe, uint64_t seed)
    : universe_(universe),
      seed_(seed),
      base_(FingerprintBase(seed)),
      levels_(static_cast<size_t>(L0LevelCount(universe))) {
  DCS_CHECK_GE(universe, 1);
}

void L0Sampler::Update(int64_t index, int64_t delta) {
  DCS_CHECK_GE(index, 0);
  DCS_CHECK_LT(index, universe_);
  if (delta == 0) return;
  const uint64_t term =
      FingerprintTerm(delta, PowMod(base_, static_cast<uint64_t>(index)));
  const int deepest = L0LevelOf(index, seed_, levels());
  for (int j = 0; j <= deepest; ++j) {
    levels_[static_cast<size_t>(j)].Add(index, delta, term);
  }
}

void L0Sampler::MergeFrom(const L0Sampler& other) {
  DCS_CHECK_EQ(universe_, other.universe_);
  DCS_CHECK_EQ(seed_, other.seed_);
  MergeCells(levels_, other.levels_);
}

}  // namespace dcs
