// The Section 4 construction: encoding an Ω(nβ/ε²)-bit Gap-Hamming family
// into a 2β-balanced graph, decodable from any (1±c₂ε) for-all cut sketch.
//
// Layout (Theorem 1.2 / Lemma 4.2). Let k = β/ε². The n = ℓ·k vertices are
// split into layers V_1..V_ℓ. Between consecutive layers (V_p, V_{p+1}),
// the left layer's vertices are ℓ_1..ℓ_k and the right layer is divided
// into β clusters R_1..R_β of 1/ε² vertices. Each (ℓ_i, R_j) pair encodes
// one binary string s_{i,j} ∈ {0,1}^(1/ε²) of Hamming weight 1/(2ε²):
// forward edge (ℓ_i, v-th node of R_j) has weight s_{i,j}(v) + 1 ∈ {1, 2},
// and every backward edge has weight 1/β. The graph is 2β-balanced with a
// per-edge certificate.
//
// Bob's decision procedure for string q = (p, i, j) with query string t
// (T ⊂ R_j the positions where t = 1): for U ⊆ V_p let
// S(U) = U ∪ (V_{p+1}∖T) ∪ V_{p+2} ∪ … ∪ V_ℓ. Bob finds the half-size
// subset Q ⊂ V_p maximizing the (backward-corrected) estimate of w(U, T)
// — by exhaustive enumeration (the paper's procedure) or, equivalently for
// modular estimators such as every sketch in this library, by ranking
// per-node marginals obtained from k+1 oracle queries — and answers
// "close" (Δ(s_q, t) ≤ 1/(2ε²) − c/ε) iff ℓ_i ∈ Q (Lemmas 4.3/4.4).

#ifndef DCS_LOWERBOUND_FORALL_ENCODING_H_
#define DCS_LOWERBOUND_FORALL_ENCODING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/gap_hamming.h"
#include "graph/digraph.h"
#include "lowerbound/cut_oracle.h"
#include "util/random.h"

namespace dcs {

// Parameters of the for-all lower-bound construction.
struct ForAllLowerBoundParams {
  int inv_epsilon_sq = 4;  // 1/ε²; must be even (strings have weight 1/(2ε²))
  int beta = 1;            // β >= 1
  int num_layers = 2;      // ℓ >= 2
  double gap_c = 0.5;      // Gap-Hamming constant c

  // Layer size k = β/ε².
  int layer_size() const { return beta * inv_epsilon_sq; }
  // Total vertices n = ℓ·k.
  int num_vertices() const { return num_layers * layer_size(); }
  // Strings per layer pair: k·β = β²/ε².
  int64_t strings_per_layer_pair() const {
    return static_cast<int64_t>(layer_size()) * beta;
  }
  // Total strings h = (ℓ−1)·β²/ε².
  int64_t total_strings() const {
    return (num_layers - 1) * strings_per_layer_pair();
  }
  // Bits encoded: h·(1/ε²)  — the Ω(nβ/ε²) the theorem lower-bounds.
  int64_t total_bits() const {
    return total_strings() * inv_epsilon_sq;
  }
  double backward_weight() const { return 1.0 / beta; }

  void Check() const;
};

// Location of one string within the construction.
struct ForAllStringLocation {
  int layer_pair = 0;    // p (0-based)
  int left_index = 0;    // i ∈ [0, k)
  int right_cluster = 0; // j ∈ [0, β)
};

ForAllStringLocation LocateForAllString(const ForAllLowerBoundParams& params,
                                        int64_t string_index);

// Alice's side.
class ForAllEncoder {
 public:
  explicit ForAllEncoder(const ForAllLowerBoundParams& params);

  // Encodes h = total_strings() binary strings, each of length 1/ε².
  DirectedGraph Encode(
      const std::vector<std::vector<uint8_t>>& strings) const;

  const ForAllLowerBoundParams& params() const { return params_; }

 private:
  ForAllLowerBoundParams params_;
};

// Bob's side.
class ForAllDecoder {
 public:
  // How the best half-size subset Q is selected (Lemma 4.4).
  enum class SubsetSelection {
    kEnumerate,  // exhaustive over all C(k, k/2) subsets (the paper's Bob)
    kGreedy,     // top-k/2 per-node marginals from k+1 queries (exact for
                 // modular estimators — every sketch in this library)
  };

  explicit ForAllDecoder(const ForAllLowerBoundParams& params);

  // Cooperative deadline for the kEnumerate mode, whose C(k, k/2) subset
  // sweep is exponential in the layer size: the enumeration checkpoints the
  // best subset seen so far and stops after `budget` candidates (counting
  // the initial subset). 0 (the default) is unlimited. Deterministic — the
  // same budget always stops at the same candidate — so chaos runs with a
  // decode deadline stay replayable and can never hang. kGreedy is
  // polynomial and ignores the budget.
  void set_enumeration_budget(int64_t budget) {
    enumeration_budget_ = budget;
  }
  int64_t enumeration_budget() const { return enumeration_budget_; }

  // Returns true for "far" (Δ(s_q, t) in the high tail), false for "close".
  bool DecideFar(int64_t string_index, const std::vector<uint8_t>& t,
                 const CutOracle& oracle, SubsetSelection mode) const;

  // The selected subset Q (exposed for tests comparing the two modes).
  // Both modes walk one oracle.BeginSession session over sides one or two
  // flips apart, so an incremental oracle answers each candidate in O(deg).
  VertexSet SelectBestSubset(int64_t string_index,
                             const std::vector<uint8_t>& t,
                             const CutOracle& oracle,
                             SubsetSelection mode) const;

 private:
  // S(U) for the given location and T.
  VertexSet BuildQuerySide(const ForAllStringLocation& loc,
                           const std::vector<uint8_t>& t,
                           const VertexSet& u_subset) const;

  ForAllLowerBoundParams params_;
  // Backward-edge-only skeleton graph: all (publicly known) fixed weights,
  // and its index for the decoders' incremental skeleton cuts.
  DirectedGraph backward_skeleton_;
  CutIndex backward_index_;
  int64_t enumeration_budget_ = 0;  // 0 = unlimited
};

// End-to-end trial: sample a distributional Gap-Hamming instance
// (Lemma 4.1) mapped onto the construction, encode, decode through the
// oracle, and report whether Bob's far/close decision was correct.
struct ForAllTrialResult {
  int64_t trials = 0;
  int64_t correct = 0;
  double accuracy() const {
    return trials == 0 ? 0 : static_cast<double>(correct) / trials;
  }
};

ForAllTrialResult RunForAllTrials(
    const ForAllLowerBoundParams& params, int num_trials, Rng& rng,
    const std::function<CutOracle(const DirectedGraph&)>& oracle_factory,
    ForAllDecoder::SubsetSelection mode);

// Parallel, seed-deterministic variant: trial i draws its instance and its
// oracle noise from a private Rng(SubtaskSeed(base_seed, i)), so the result is
// bit-identical for every num_threads (1 runs serially on the caller).
ForAllTrialResult RunForAllTrials(
    const ForAllLowerBoundParams& params, int num_trials, uint64_t base_seed,
    const SeededCutOracleFactory& oracle_factory,
    ForAllDecoder::SubsetSelection mode, int num_threads);

}  // namespace dcs

#endif  // DCS_LOWERBOUND_FORALL_ENCODING_H_
