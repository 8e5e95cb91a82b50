// Sampling-based undirected cut sketches.
//
// Both classes sample edges independently with probability proportional to
// w_e / λ_e (λ_e = Nagamochi–Ibaraki strength) and reweight kept edges by
// 1/p_e, so every cut estimate is unbiased. The oversampling rate sets the
// guarantee:
//
//  * BenczurKargerSparsifier: p_e ∝ ln(n)·w_e/(ε²·λ_e). For-all guarantee
//    (Definition 2.2): with high probability *every* cut is within (1±ε).
//    Expected Õ(n/ε²) edges [BK96].
//  * ForEachCutSketch: p_e ∝ w_e/(ε·λ_e). Expected Õ(n/ε) edges; each fixed
//    cut is estimated with standard deviation O(√ε)·cut (for-each,
//    Definition 2.3 with error √ε up to constants). The optimal Õ(n/ε)
//    for-each sketch of [ACK+16] achieves error ε at this size via a more
//    intricate two-level scheme; this library keeps the simple sampler and
//    reports the measured error/size trade-off in the tightness benches
//    (see DESIGN.md "substitutions").

#ifndef DCS_SKETCH_SAMPLED_SKETCHES_H_
#define DCS_SKETCH_SAMPLED_SKETCHES_H_

#include <vector>

#include "graph/ugraph.h"
#include "sketch/cut_sketch.h"
#include "util/bitio.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

// Shared implementation: keeps edge e with probability
// p_e = min(1, factor·w_e/λ_e), reweighted to w_e/p_e.
UndirectedGraph ImportanceSampleByStrength(const UndirectedGraph& graph,
                                           double factor, Rng& rng);

// For-all cut sparsifier [BK96].
class BenczurKargerSparsifier final : public UndirectedCutSketch {
 public:
  // oversample_c scales the sampling rate (theory wants a large constant;
  // c ≈ 2 already gives accurate cuts at these scales).
  BenczurKargerSparsifier(const UndirectedGraph& graph, double epsilon,
                          Rng& rng, double oversample_c = 2.0);

  // Reconstructs a sketch from an already-sampled sparsifier (used by
  // Deserialize and by tests).
  static BenczurKargerSparsifier FromSparsifier(double epsilon,
                                                UndirectedGraph sparsifier);

  // Wire format: an envelope (kForAllSparsifier) whose payload is epsilon
  // (double) + the enveloped sparsifier graph. Deserialize validates the
  // stream (see serialization.h) and never aborts on corrupted input.
  void Serialize(BitWriter& writer) const;
  static StatusOr<BenczurKargerSparsifier> Deserialize(BitReader& reader);

  double EstimateCut(const VertexSet& side) const override;
  int64_t SizeInBits() const override;

  const UndirectedGraph& sparsifier() const { return sparsifier_; }
  double epsilon() const { return epsilon_; }

 private:
  BenczurKargerSparsifier(double epsilon, UndirectedGraph sparsifier);

  double epsilon_;
  UndirectedGraph sparsifier_;
  int64_t size_bits_;
};

// For-each cut sketch (simple Õ(n/ε)-size sampler; see file comment).
class ForEachCutSketch final : public UndirectedCutSketch {
 public:
  ForEachCutSketch(const UndirectedGraph& graph, double epsilon, Rng& rng,
                   double oversample_c = 2.0);

  // Reconstructs a sketch from an already-drawn sample.
  static ForEachCutSketch FromSample(double epsilon, UndirectedGraph sample);

  // Wire format: an envelope (kForEachSketch) whose payload is epsilon
  // (double) + the enveloped sample graph. Deserialize validates the stream
  // (see serialization.h) and never aborts on corrupted input.
  void Serialize(BitWriter& writer) const;
  static StatusOr<ForEachCutSketch> Deserialize(BitReader& reader);

  double EstimateCut(const VertexSet& side) const override;
  int64_t SizeInBits() const override;

  const UndirectedGraph& sample() const { return sample_; }
  double epsilon() const { return epsilon_; }

 private:
  ForEachCutSketch(double epsilon, UndirectedGraph sample);

  double epsilon_;
  UndirectedGraph sample_;
  int64_t size_bits_;
};

// Degree-complement for-each sketch: exact weighted degrees plus a
// strength-based edge sample, with the identity
//   cut(S) = Σ_{v∈S} deg(v) − 2·w(S, S)
// estimated via the sampled internal weight. The ablation counterpart to
// ForEachCutSketch's crossing-edge estimator: singleton cuts are answered
// *exactly* from the degree table, but the estimator's variance scales
// with the internal weight of S instead of the cut value — bad for large
// dense sides (measured in bench_sparsifier).
class DegreeComplementSketch final : public UndirectedCutSketch {
 public:
  DegreeComplementSketch(const UndirectedGraph& graph, double epsilon,
                         Rng& rng, double oversample_c = 2.0);

  double EstimateCut(const VertexSet& side) const override;
  int64_t SizeInBits() const override;

  const UndirectedGraph& sample() const { return sample_; }

 private:
  std::vector<double> degrees_;
  UndirectedGraph sample_;
  int64_t size_bits_;
};

}  // namespace dcs

#endif  // DCS_SKETCH_SAMPLED_SKETCHES_H_
