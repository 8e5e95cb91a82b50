#include "util/hadamard.h"

#include <algorithm>
#include <bit>

#include "util/simd.h"

namespace dcs {
namespace {

// The sign word covering columns [word_index·64, word_index·64 + 64) of
// Hadamard row `row` (bit = 1 ⇔ sign = −1). Split col = hi·64 + lo:
// parity(popcount(row AND col)) = parity(row_lo AND lo) XOR
// parity(row_hi AND hi), so the whole word is a 6-bit base pattern,
// complemented when the high parts have odd overlap — O(1) per word
// instead of 64 per-column popcounts.
inline uint64_t HadamardRowWord(unsigned row, size_t word_index,
                                uint64_t base_pattern) {
  const unsigned row_hi = row >> 6;
  const unsigned hi = static_cast<unsigned>(word_index);
  return (std::popcount(row_hi & hi) & 1) ? ~base_pattern : base_pattern;
}

inline uint64_t HadamardBasePattern(unsigned row) {
  const unsigned row_lo = row & 63u;
  uint64_t base = 0;
  for (unsigned lo = 0; lo < 64; ++lo) {
    if (std::popcount(row_lo & lo) & 1) base |= uint64_t{1} << lo;
  }
  return base;
}

}  // namespace

void HadamardRowSignsInto(int row, int log_size, std::span<int8_t> out) {
  DCS_CHECK_GE(log_size, 0);
  DCS_CHECK_LE(log_size, 30);
  const int64_t n = int64_t{1} << log_size;
  DCS_CHECK(row >= 0 && row < n);
  DCS_CHECK_EQ(static_cast<int64_t>(out.size()), n);
  const unsigned urow = static_cast<unsigned>(row);
  const uint64_t base = HadamardBasePattern(urow);
  int64_t col = 0;
  for (size_t w = 0; col < n; ++w) {
    const uint64_t word = HadamardRowWord(urow, w, base);
    const int64_t limit = std::min<int64_t>(n, col + 64);
    for (; col < limit; ++col) {
      out[static_cast<size_t>(col)] =
          (word >> (col & 63)) & 1 ? int8_t{-1} : int8_t{1};
    }
  }
}

HadamardMatrix::HadamardMatrix(int log_size) : log_size_(log_size) {
  DCS_CHECK_GE(log_size, 0);
  DCS_CHECK_LE(log_size, 30);
  size_ = 1 << log_size;
}

int HadamardMatrix::Entry(int row, int col) const {
  DCS_DCHECK(row >= 0 && row < size_);
  DCS_DCHECK(col >= 0 && col < size_);
  const unsigned overlap =
      static_cast<unsigned>(row) & static_cast<unsigned>(col);
  return (std::popcount(overlap) & 1) ? -1 : 1;
}

std::vector<int8_t> HadamardMatrix::Row(int row) const {
  std::vector<int8_t> signs(static_cast<size_t>(size_));
  HadamardRowSignsInto(row, log_size_, signs);
  return signs;
}

void FastWalshHadamardTransform(std::vector<int64_t>& values) {
  simd::Fwht(values.data(), values.size());
}

TensorSignMatrix::TensorSignMatrix(int log_size)
    : log_size_(log_size),
      block_size_(1 << log_size),
      rows_(static_cast<int64_t>(block_size_ - 1) * (block_size_ - 1)),
      cols_(static_cast<int64_t>(block_size_) * block_size_),
      hadamard_(log_size) {
  DCS_CHECK_GE(log_size, 1);
  DCS_CHECK_LE(log_size, 15);
}

std::pair<int, int> TensorSignMatrix::RowFactors(int64_t t) const {
  DCS_DCHECK(t >= 0 && t < rows_);
  const int n_minus_1 = block_size_ - 1;
  const int i = static_cast<int>(t / n_minus_1) + 1;
  const int j = static_cast<int>(t % n_minus_1) + 1;
  return {i, j};
}

int TensorSignMatrix::Entry(int64_t t, int64_t col) const {
  DCS_DCHECK(col >= 0 && col < cols_);
  const auto [i, j] = RowFactors(t);
  const int a = static_cast<int>(col / block_size_);
  const int b = static_cast<int>(col % block_size_);
  return hadamard_.Entry(i, a) * hadamard_.Entry(j, b);
}

std::vector<int8_t> TensorSignMatrix::LeftFactor(int64_t t) const {
  return hadamard_.Row(RowFactors(t).first);
}

std::vector<int8_t> TensorSignMatrix::RightFactor(int64_t t) const {
  return hadamard_.Row(RowFactors(t).second);
}

void TensorSignMatrix::LeftFactorInto(int64_t t, std::span<int8_t> out) const {
  HadamardRowSignsInto(RowFactors(t).first, log_size_, out);
}

void TensorSignMatrix::RightFactorInto(int64_t t,
                                       std::span<int8_t> out) const {
  HadamardRowSignsInto(RowFactors(t).second, log_size_, out);
}

std::vector<int64_t> TensorSignMatrix::EncodeSigns(
    const std::vector<int8_t>& z) const {
  DCS_CHECK_EQ(static_cast<int64_t>(z.size()), rows_);
  const size_t n = static_cast<size_t>(block_size_);
  // Arrange z into a flat row-major N×N coefficient matrix X with
  // X[i·N + j] = z_t for the row t whose factors are (i, j); row/column 0
  // stay zero (the all-ones Hadamard row is excluded by the construction).
  // Then x[a·N + b] = Σ_{i,j} X[i·N+j]·H(i,a)·H(j,b), a Walsh–Hadamard
  // transform along each dimension (H is symmetric, so transforming rows
  // then columns computes exactly this) — and the transformed buffer *is*
  // the answer, already in the a·N + b layout.
  std::vector<int64_t> x(static_cast<size_t>(cols_), 0);
  for (int64_t t = 0; t < rows_; ++t) {
    const auto [i, j] = RowFactors(t);
    x[static_cast<size_t>(i) * n + static_cast<size_t>(j)] =
        z[static_cast<size_t>(t)];
  }
  // Transform along j for each fixed i (contiguous rows, SIMD-dispatched).
  for (size_t i = 0; i < n; ++i) {
    simd::Fwht(x.data() + i * n, n);
  }
  // Transform along i. Rather than running one stride-N FWHT per column
  // (N passes that each touch one element per cache line), run the
  // butterfly stages over whole rows: each (row a, row a+len) pair is
  // combined element-wise in a contiguous SIMD sweep. Column tiling keeps
  // the working set of all log N stages inside L2 when the buffer is
  // larger: each tile of columns runs every stage while resident (the
  // stages act per column, so tiling reorders only operations on disjoint
  // elements — results are bit-identical to the untiled sweep).
  constexpr size_t kL2TileBytes = size_t{1} << 18;  // 256 KiB
  const size_t tile =
      std::max<size_t>(8, std::min(n, kL2TileBytes / (n * sizeof(int64_t))));
  for (size_t col0 = 0; col0 < n; col0 += tile) {
    const size_t width = std::min(tile, n - col0);
    for (size_t len = 1; len < n; len <<= 1) {
      for (size_t block = 0; block < n; block += len << 1) {
        for (size_t a = block; a < block + len; ++a) {
          simd::ButterflyRows(x.data() + a * n + col0,
                              x.data() + (a + len) * n + col0, width);
        }
      }
    }
  }
  return x;
}

int64_t TensorSignMatrix::InnerProductWithRow(const std::vector<int64_t>& x,
                                              int64_t t) const {
  DCS_CHECK_EQ(static_cast<int64_t>(x.size()), cols_);
  int64_t sum = 0;
  for (int64_t col = 0; col < cols_; ++col) {
    sum += x[static_cast<size_t>(col)] * Entry(t, col);
  }
  return sum;
}

}  // namespace dcs
