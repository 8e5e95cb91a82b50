// Sylvester–Hadamard matrices and the tensor-row sign matrix of Lemma 3.2.
//
// The for-each lower bound (Section 3 of the paper) encodes a random sign
// string z into forward edge weights w = ε·x + 2c₁ln(1/ε)·1 where
// x = Σ_t z_t·M_t and M is a {−1,+1} matrix with:
//   (1) ⟨M_t, 1⟩ = 0            (every row is balanced),
//   (2) ⟨M_t, M_t'⟩ = 0, t ≠ t'  (rows are orthogonal),
//   (3) M_t = u ⊗ v with u, v balanced ±1 vectors (so each row corresponds
//       to a pair of half-size vertex subsets A ⊆ L_i, B ⊆ R_j).
// The construction takes rows 2..2^k of the Sylvester–Hadamard matrix
// H_{2^k} and uses all (2^k−1)² tensor products H_i ⊗ H_j.
//
// Entries are computed on demand (H(i,j) = (−1)^popcount(i AND j)); rows
// and tensor factors are handed out as ±1 bytes, written 64 columns per
// sign word. Encoding Σ_t z_t·M_t uses a two-dimensional fast
// Walsh–Hadamard transform over one flat row-major N×N buffer (an FWHT per
// row, then butterfly sweeps over whole rows for the columns),
// O(N²·log N) for N = 2^k instead of the naive O(N⁴).

#ifndef DCS_UTIL_HADAMARD_H_
#define DCS_UTIL_HADAMARD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace dcs {

// The N×N Sylvester–Hadamard matrix, N = 2^log_size. Row and column indices
// are 0-based; row 0 is all ones, every other row is balanced, and distinct
// rows are orthogonal.
class HadamardMatrix {
 public:
  // Requires 0 <= log_size <= 30.
  explicit HadamardMatrix(int log_size);

  int log_size() const { return log_size_; }
  int size() const { return size_; }

  // Returns the entry in {-1, +1}.
  int Entry(int row, int col) const;

  // Returns row `row` as a ±1 vector of length size().
  std::vector<int8_t> Row(int row) const;

 private:
  int log_size_;
  int size_;
};

// Writes row `row` of the Sylvester–Hadamard matrix H_{2^log_size} as ±1
// bytes into `out` (size exactly 2^log_size) without allocating. Requires
// 0 <= log_size <= 30 and 0 <= row < 2^log_size.
void HadamardRowSignsInto(int row, int log_size, std::span<int8_t> out);

// In-place fast Walsh–Hadamard transform of a length-2^k vector
// (unnormalized: applying twice multiplies by 2^k).
void FastWalshHadamardTransform(std::vector<int64_t>& values);

// The Lemma 3.2 matrix M for block size N = 2^log_size.
//
// Rows are indexed t in [0, (N−1)²); columns are indexed by pairs
// (a, b) in [0, N)², flattened as a*N + b (the paper's "alphabetical"
// forward-edge order: first by the left endpoint, then by the right).
class TensorSignMatrix {
 public:
  // Requires 1 <= log_size <= 15 (so N² columns fit comfortably).
  explicit TensorSignMatrix(int log_size);

  // Block size N = 2^log_size (the paper's 1/ε).
  int block_size() const { return block_size_; }
  // Number of rows, (N−1)².
  int64_t rows() const { return rows_; }
  // Number of columns, N².
  int64_t cols() const { return cols_; }

  // The Hadamard row indices (i, j), both in [1, N), whose tensor product
  // forms row t: M_t = H_i ⊗ H_j.
  std::pair<int, int> RowFactors(int64_t t) const;

  // Entry M_t[col] in {-1, +1}.
  int Entry(int64_t t, int64_t col) const;

  // The left factor u of M_t = u ⊗ v, as a ±1 vector of length N.
  std::vector<int8_t> LeftFactor(int64_t t) const;
  // The right factor v of M_t = u ⊗ v, as a ±1 vector of length N.
  std::vector<int8_t> RightFactor(int64_t t) const;

  // Variants writing the ±1 bytes straight into caller storage of length
  // exactly N, with no allocation (the path the decoders use).
  void LeftFactorInto(int64_t t, std::span<int8_t> out) const;
  void RightFactorInto(int64_t t, std::span<int8_t> out) const;

  // Computes x = Σ_t z_t · M_t for a sign vector z of length rows().
  // Returned vector has length cols(). Uses a 2-D FWHT over a single flat
  // buffer (no per-row vectors, no column copies).
  std::vector<int64_t> EncodeSigns(const std::vector<int8_t>& z) const;

  // ⟨x, M_t⟩ computed directly (O(cols())); used by decoders and tests.
  int64_t InnerProductWithRow(const std::vector<int64_t>& x,
                              int64_t t) const;

  // Squared L2 norm of every row: N².
  int64_t RowNormSquared() const { return cols_; }

 private:
  int log_size_;
  int block_size_;
  int64_t rows_;
  int64_t cols_;
  HadamardMatrix hadamard_;
};

}  // namespace dcs

#endif  // DCS_UTIL_HADAMARD_H_
