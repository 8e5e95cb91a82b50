// The Section 3 construction: encoding Ω(n√β/ε) bits into a β-balanced
// graph so that any single bit is recoverable from 4 for-each cut queries.
//
// Layout (Theorem 1.1 / Lemma 3.3). Let 1/ε = 2^k and √β be an integer.
// The n = ℓ·(√β/ε) vertices are split into ℓ layers V_1..V_ℓ of
// k = √β/ε vertices each. Between consecutive layers (V_p, V_{p+1}), each
// layer is divided into √β clusters of 1/ε vertices. Every cluster pair
// (L_i, R_j) encodes an independent sign string z ∈ {−1,1}^((1/ε−1)²):
//
//   x = Σ_t z_t·M_t              (M from Lemma 3.2, block size 1/ε)
//   w = ε·x + 2c₁·ln(1/ε)·1      (if ‖x‖∞ ≤ c₁·ln(1/ε)/ε, else all-base:
//                                 the 1/100-probability encoding failure)
//
// Forward edge u→v (u ∈ L_i, v ∈ R_j) gets weight w[u·(1/ε)+v]; every
// backward edge v→u gets weight 1/β. Every forward weight lies in
// [c₁ln(1/ε), 3c₁ln(1/ε)], so the graph is O(β·log(1/ε))-balanced with a
// per-edge certificate.
//
// Decoding bit t of cluster pair (i, j) in layer pair p: write
// M_t = h_A ⊗ h_B, A = {u : h_A(u) = +1} ⊂ L_i, B = {v : h_B(v) = +1} ⊂ R_j,
// and query the four cuts S = A' ∪ (V_{p+1}∖B') ∪ V_{p+2} ∪ … ∪ V_ℓ for
// (A', B') ∈ {A, Ā}×{B, B̄}. Subtracting the (publicly known) backward-edge
// weight leaves ŵ(A', B'); the alternating sum estimates ⟨w, M_t⟩ = z_t/ε,
// and its sign is the decoded bit.

#ifndef DCS_LOWERBOUND_FOREACH_ENCODING_H_
#define DCS_LOWERBOUND_FOREACH_ENCODING_H_

#include <array>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "lowerbound/cut_oracle.h"
#include "util/hadamard.h"
#include "util/random.h"

namespace dcs {

// Parameters of the for-each lower-bound construction.
struct ForEachLowerBoundParams {
  int inv_epsilon = 4;  // 1/ε; must be a power of two, >= 2
  int sqrt_beta = 1;    // √β; integer >= 1
  int num_layers = 2;   // ℓ >= 2
  double c1 = 2.0;      // Chernoff constant for the ‖x‖∞ clipping

  // β = sqrt_beta².
  double beta() const { return static_cast<double>(sqrt_beta) * sqrt_beta; }
  // Layer size k = √β/ε.
  int layer_size() const { return sqrt_beta * inv_epsilon; }
  // Total vertices n = ℓ·k.
  int num_vertices() const { return num_layers * layer_size(); }
  // Bits per cluster pair: (1/ε − 1)².
  int64_t bits_per_cluster_pair() const {
    const int64_t d = inv_epsilon - 1;
    return d * d;
  }
  // Cluster pairs per layer pair: β.
  int64_t cluster_pairs_per_layer() const {
    return static_cast<int64_t>(sqrt_beta) * sqrt_beta;
  }
  // Total encodable bits: (ℓ−1)·β·(1/ε−1)².
  int64_t total_bits() const {
    return (num_layers - 1) * cluster_pairs_per_layer() *
           bits_per_cluster_pair();
  }
  // Base forward weight 2c₁·ln(1/ε).
  double forward_base_weight() const;
  // ‖x‖∞ clipping threshold c₁·ln(1/ε)/ε.
  double clip_threshold() const;
  // Backward edge weight 1/β.
  double backward_weight() const { return 1.0 / beta(); }
  // The lower-bound formula n·√β/ε this construction realizes (in bits,
  // up to the (1−ε)² vs 1/ε² slack).
  double info_formula() const {
    return static_cast<double>(num_vertices()) * sqrt_beta * inv_epsilon;
  }

  // Validates invariants (power-of-two 1/ε, ranges).
  void Check() const;
};

// Position of one bit of Alice's string within the construction.
struct ForEachBitLocation {
  int layer_pair = 0;     // p: encodes between V_p and V_{p+1} (0-based)
  int left_cluster = 0;   // i ∈ [0, √β)
  int right_cluster = 0;  // j ∈ [0, √β)
  int64_t tensor_row = 0; // t ∈ [0, (1/ε−1)²)
};

// Maps a global bit index q ∈ [0, total_bits()) to its location.
ForEachBitLocation LocateForEachBit(const ForEachLowerBoundParams& params,
                                    int64_t q);

// Alice's side of the reduction.
class ForEachEncoder {
 public:
  explicit ForEachEncoder(const ForEachLowerBoundParams& params);

  // Result of encoding: the graph plus per-cluster-pair failure flags
  // (a cluster pair fails when ‖x‖∞ exceeds the clip threshold; its bits
  // are unrecoverable, which the paper charges to the 1/100 error budget).
  struct Encoding {
    DirectedGraph graph;
    // Indexed by [layer_pair][left_cluster·√β + right_cluster].
    std::vector<std::vector<uint8_t>> cluster_failed;
    int64_t failed_clusters = 0;
  };

  // Encodes a ±1 string of length params.total_bits().
  Encoding Encode(const std::vector<int8_t>& s) const;

  const ForEachLowerBoundParams& params() const { return params_; }

  // Vertex id of the u-th vertex of cluster c in layer p.
  VertexId VertexOf(int layer, int cluster, int offset) const;

 private:
  ForEachLowerBoundParams params_;
  TensorSignMatrix tensor_;
};

// Bob's side of the reduction.
class ForEachDecoder {
 public:
  explicit ForEachDecoder(const ForEachLowerBoundParams& params);

  // The four cut queries that decode one bit, with their fixed (backward-
  // edge) crossing weights precomputed from public information.
  struct QueryPlan {
    // Sign of each term in the alternating sum: +(A,B) −(Ā,B) −(A,B̄) +(Ā,B̄).
    std::array<VertexSet, 4> cut_sides;
    std::array<double, 4> fixed_weights;
    std::array<int, 4> signs;
  };

  QueryPlan PlanQueries(int64_t q) const;

  // Recovers bit q by issuing the 4 queries against `oracle`.
  int8_t DecodeBit(int64_t q, const CutOracle& oracle) const;

  // The estimate of ⟨w, M_t⟩ before taking the sign (exposed for tests and
  // the Figure 1 anatomy bench).
  double EstimateInnerProduct(int64_t q, const CutOracle& oracle) const;

 private:
  // The four cut sides for bit location `loc`, in query order
  // (A,B), (Ā,B), (A,B̄), (Ā,B̄). Consecutive sides differ only inside the
  // two clusters L_i and R_j, which is what makes the session-based decode
  // cheap.
  std::array<VertexSet, 4> BuildQuerySides(
      const ForEachBitLocation& loc) const;

  ForEachLowerBoundParams params_;
  TensorSignMatrix tensor_;
  // Backward-edge-only skeleton graph: all (publicly known) fixed weights,
  // and its index for the decoders' incremental skeleton cuts.
  DirectedGraph backward_skeleton_;
  CutIndex backward_index_;
};

// End-to-end trial: encode a random string, decode `probe_count` random
// bit positions through `oracle_factory(graph)`, and report accuracy.
struct ForEachTrialResult {
  int64_t probes = 0;
  int64_t correct = 0;
  double accuracy() const {
    return probes == 0 ? 0 : static_cast<double>(correct) / probes;
  }
};

ForEachTrialResult RunForEachTrial(
    const ForEachLowerBoundParams& params, int probe_count, Rng& rng,
    const std::function<CutOracle(const DirectedGraph&)>& oracle_factory);

// Runs `num_trials` independent trials of `probe_count` probes each and
// aggregates. Trial i draws its string, probes, and oracle noise from a
// private Rng(SubtaskSeed(base_seed, i)), so the result is bit-identical for
// every
// num_threads (1 runs serially on the caller).
ForEachTrialResult RunForEachTrials(
    const ForEachLowerBoundParams& params, int num_trials, int probe_count,
    uint64_t base_seed, const SeededCutOracleFactory& oracle_factory,
    int num_threads);

}  // namespace dcs

#endif  // DCS_LOWERBOUND_FOREACH_ENCODING_H_
