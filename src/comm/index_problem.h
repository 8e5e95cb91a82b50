// The Index problem (Lemma 3.1, [KNR01]).
//
// Alice holds a uniformly random sign string s ∈ {−1,+1}^n; Bob holds a
// uniformly random index i and must recover s_i from a single message.
// Any protocol succeeding with probability ≥ 2/3 needs Ω(n) bits.
//
// This module provides the instance distribution and the trivial optimal
// protocol (send s verbatim: n bits). Only tests/comm_test.cc runs it; no
// bench or program compares it against the sketch-based protocols yet.

#ifndef DCS_COMM_INDEX_PROBLEM_H_
#define DCS_COMM_INDEX_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "comm/message.h"
#include "util/random.h"

namespace dcs {

// One sampled Index instance.
struct IndexInstance {
  std::vector<int8_t> s;  // Alice's ±1 string
  int64_t index = 0;      // Bob's index into s
};

// Samples an instance with |s| = length.
IndexInstance SampleIndexInstance(int64_t length, Rng& rng);

// The trivial protocol: Alice sends all of s (1 bit per sign).
Message IndexTrivialEncode(const std::vector<int8_t>& s);

// Bob's side of the trivial protocol.
int8_t IndexTrivialDecode(const Message& message, int64_t index);

}  // namespace dcs

#endif  // DCS_COMM_INDEX_PROBLEM_H_
