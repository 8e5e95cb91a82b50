// Cut-balance sparsifier for β-balanced digraphs, after [CCPS21]
// ("Sparsification of Directed Graphs via Cut Balance").
//
// The sketch has two halves, mirroring the decomposition
// w(S, V∖S) = (u(S) + d(S)) / 2:
//
//  * A *directed* importance sample of the edges at a balance-aware rate
//    p_e ∝ (1+β_e)²·w_e / (ε²·λ_e), where λ_e is the edge's strength in
//    the symmetrization and β_e is the *local* pair balance
//    max(w_uv, w_vu)/min(w_uv, w_vu) capped by the promised global β —
//    locally balanced pairs are cheap to sample even in a globally skewed
//    graph, which is exactly [CCPS21]'s point. The symmetrized value of
//    the sample estimates u(S).
//  * A *quantized* imbalance vector: d(v) = out(v) − in(v) rounded to a
//    step q = ε·u_min/(2n(1+β)) (u_min = min cut of the symmetrization),
//    stored as zigzag Elias-gamma integers. For every proper cut S the
//    rounding error is at most n·q/2 ≤ (ε/4)·u(S)/(1+β) ≤ (ε/4)·w(S),
//    while the storage cost per vertex is ~2·log₂(|d(v)|/q) bits — the
//    honest Θ(n·log β) dependence the paper's Ω(n·log β/ε²) lower bound
//    says is unavoidable (the sketch must resolve near-cancellation
//    between forward and backward flow across every cut).
//
// EstimateCut re-centers the sample with the quantized imbalance:
//     ŵ(S) = max(0, (û(S) + q·Σ_{v∈S} round(d(v)/q)) / 2),
//     û(S) = sample.CutWeight(S) + sample.CutWeight(V∖S),
// so the directionally-noisy part of the sample contributes only through
// its (well-concentrated) symmetrization, and the direction information
// comes from the near-exact imbalance term.

#ifndef DCS_SKETCH_CUT_BALANCE_SPARSIFIER_H_
#define DCS_SKETCH_CUT_BALANCE_SPARSIFIER_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "sketch/cut_sketch.h"
#include "util/bitio.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

// For-all sketch of a β-balanced digraph with (1±ε) cut estimates.
class CutBalanceSparsifier final : public DirectedCutSketch {
 public:
  // `beta` is the balance parameter the graph is promised to satisfy
  // (>= 1); epsilon in (0, 1).
  CutBalanceSparsifier(const DirectedGraph& graph, double epsilon,
                       double beta, Rng& rng, double oversample_c = 2.0);

  // Wire format: an envelope (kCutBalanceSparsifier) whose payload is
  // epsilon + beta + quantization step + the zigzag Elias-gamma imbalance
  // array + the enveloped directed sample. Deserialize validates the
  // stream field by field and never aborts on corrupted input.
  void Serialize(BitWriter& writer) const;
  static StatusOr<CutBalanceSparsifier> Deserialize(BitReader& reader);

  double EstimateCut(const VertexSet& side) const override;
  int64_t SizeInBits() const override;

  // The directed edge sample (observability).
  const DirectedGraph& sample() const { return sample_; }
  // Serialized bits spent on the quantized imbalance array alone — the
  // component whose growth with log β the differential harness asserts.
  int64_t imbalance_bits() const;

 private:
  CutBalanceSparsifier() : sample_(0) {}

  double epsilon_ = 0;
  double beta_ = 1;
  double quantization_step_ = 0;
  std::vector<int64_t> quantized_imbalance_;
  DirectedGraph sample_;
};

}  // namespace dcs

#endif  // DCS_SKETCH_CUT_BALANCE_SPARSIFIER_H_
