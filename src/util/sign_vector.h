// Bit-packed ±1 vectors with popcount inner products.
//
// The Hadamard-structured objects in this library (sketch sign rows,
// Lemma 3.2 tensor factors) are ±1 vectors whose only operations are sign
// lookup and inner products. Packing 64 signs per machine word (bit = 1 ⇔
// sign = −1) turns an inner product into XOR + popcount:
//   ⟨a, b⟩ = #agree − #disagree = size − 2·popcount(a ⊕ b),
// one word op per 64 entries instead of 64 multiply-adds — the same trick
// streaming-sketch systems use for their AGM sketch supernode merges.

#ifndef DCS_UTIL_SIGN_VECTOR_H_
#define DCS_UTIL_SIGN_VECTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace dcs {

// Writes row `row` of the Sylvester–Hadamard matrix H_{2^log_size} as ±1
// bytes into `out` (size exactly 2^log_size) without allocating.
void HadamardRowSignsInto(int row, int log_size, std::span<int8_t> out);

class SignVector {
 public:
  // An all-(+1) vector of the given size.
  explicit SignVector(int64_t size = 0);

  // Packs a ±1 vector (every entry must be +1 or −1).
  static SignVector FromSigns(const std::vector<int8_t>& signs);

  // Row `row` of the Sylvester–Hadamard matrix H_{2^log_size}:
  // sign(col) = (−1)^popcount(row AND col). Requires 0 <= row < 2^log_size
  // and 0 <= log_size <= 30.
  static SignVector HadamardRow(int row, int log_size);

  int64_t size() const { return size_; }

  // The entry in {−1, +1}.
  int Sign(int64_t i) const {
    DCS_DCHECK(i >= 0 && i < size_);
    const uint64_t word = words_[static_cast<size_t>(i >> 6)];
    return (word >> (i & 63)) & 1 ? -1 : 1;
  }

  void SetSign(int64_t i, int sign);

  // ⟨a, b⟩ via XOR + popcount. Requires equal sizes.
  int64_t InnerProduct(const SignVector& other) const;

  // Σ_i sign_i = size − 2·(number of −1 entries).
  int64_t SumOfSigns() const;

  // Unpacks to a ±1 byte vector.
  std::vector<int8_t> ToSigns() const;

  friend bool operator==(const SignVector& a, const SignVector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  int64_t size_ = 0;
  std::vector<uint64_t> words_;  // bit = 1 ⇔ sign = −1; tail bits are 0
};

}  // namespace dcs

#endif  // DCS_UTIL_SIGN_VECTOR_H_
