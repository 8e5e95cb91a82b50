// Undirected sketches: for-all accuracy of the Benczúr–Karger sparsifier
// over *enumerated* cuts, and unbiasedness and size/accuracy behavior of
// the for-each sampler.

#include <cmath>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "mincut/stoer_wagner.h"
#include "sketch/sampled_sketches.h"
#include "util/random.h"
#include "util/stats.h"

namespace dcs {
namespace {

// Enumerates all proper cuts of a small graph and returns the worst
// relative error of the sketch.
double WorstRelativeError(const UndirectedGraph& graph,
                          const UndirectedCutSketch& sketch) {
  const int n = graph.num_vertices();
  double worst = 0;
  for (uint64_t mask = 1; mask + 1 < (1ULL << (n - 1)) * 2; ++mask) {
    VertexSet side(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
      side[static_cast<size_t>(v)] = static_cast<uint8_t>((mask >> v) & 1);
    }
    if (!IsProperCutSide(side)) continue;
    const double exact = graph.CutWeight(side);
    if (exact == 0) continue;
    const double estimate = sketch.EstimateCut(side);
    worst = std::max(worst, std::abs(estimate - exact) / exact);
  }
  return worst;
}

TEST(BenczurKargerTest, ForAllAccuracyOnRandomGraph) {
  Rng gen_rng(2);
  const UndirectedGraph g = CompleteGraph(14, 1.0);
  Rng sketch_rng(3);
  const BenczurKargerSparsifier sketch(g, /*epsilon=*/0.25, sketch_rng,
                                       /*oversample_c=*/3.0);
  // All cuts simultaneously within a modest multiple of ε (constants in the
  // theory are generous; we assert the practical bound 1.5ε).
  EXPECT_LE(WorstRelativeError(g, sketch), 0.375);
}

TEST(BenczurKargerTest, SparsifierIsSmallerOnDenseGraphs) {
  Rng gen_rng(4);
  const UndirectedGraph g = CompleteGraph(60, 1.0);
  Rng sketch_rng(5);
  const BenczurKargerSparsifier sketch(g, 0.4, sketch_rng);
  EXPECT_LT(sketch.sparsifier().num_edges(), g.num_edges());
}

TEST(BenczurKargerTest, SizeShrinksAsEpsilonGrows) {
  const UndirectedGraph g = CompleteGraph(40, 1.0);
  Rng rng1(6);
  Rng rng2(6);
  const BenczurKargerSparsifier tight(g, 0.1, rng1);
  const BenczurKargerSparsifier loose(g, 0.5, rng2);
  EXPECT_GT(tight.sparsifier().num_edges(), loose.sparsifier().num_edges());
}

TEST(BenczurKargerTest, PreservesMinCutValue) {
  const UndirectedGraph g = DumbbellGraph(12, 4);
  Rng rng(7);
  const BenczurKargerSparsifier sketch(g, 0.2, rng, 3.0);
  const double exact = StoerWagnerMinCut(g).value;
  const double sparsified = StoerWagnerMinCut(sketch.sparsifier()).value;
  EXPECT_NEAR(sparsified, exact, 0.4 * exact);
}

TEST(ImportanceSamplingTest, KeepsLowStrengthEdgesDeterministically) {
  // With factor >= 1, a spanning tree's bridge edges have p = 1 and are
  // always kept, so connectivity never degrades.
  Rng gen_rng(8);
  const UndirectedGraph g =
      RandomUndirectedGraph(30, 0.1, 1.0, 1.0, true, gen_rng);
  Rng rng(9);
  const UndirectedGraph sample = ImportanceSampleByStrength(g, 1.0, rng);
  EXPECT_GE(sample.num_edges(), 29);
}

TEST(ForEachSketchTest, UnbiasedOnAFixedCut) {
  Rng gen_rng(10);
  const UndirectedGraph g = CompleteGraph(16, 1.0);
  const VertexSet side = MakeVertexSet(16, {0, 1, 2, 3, 4});
  const double exact = g.CutWeight(side);
  std::vector<double> estimates;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const ForEachCutSketch sketch(g, 0.3, rng);
    estimates.push_back(sketch.EstimateCut(side));
  }
  // Mean over independent sketches concentrates on the exact value.
  EXPECT_NEAR(Mean(estimates), exact, 0.05 * exact);
}

TEST(ForEachSketchTest, PerCutSuccessProbability) {
  // Definition 2.3: each fixed cut within a tolerance with probability 2/3.
  Rng gen_rng(11);
  const UndirectedGraph g = CompleteGraph(16, 1.0);
  const VertexSet side = MakeVertexSet(16, {0, 5, 9});
  const double exact = g.CutWeight(side);
  int hits = 0;
  const int trials = 150;
  for (uint64_t seed = 0; seed < trials; ++seed) {
    Rng rng(seed + 1000);
    const ForEachCutSketch sketch(g, 0.2, rng, 3.0);
    const double estimate = sketch.EstimateCut(side);
    // √ε-grade tolerance for the simple sampler (documented substitution).
    if (std::abs(estimate - exact) <= 0.6 * exact) ++hits;
  }
  EXPECT_GE(hits, (2 * trials) / 3);
}

TEST(ForEachSketchTest, SmallerThanForAllAtSameEpsilon) {
  const UndirectedGraph g = CompleteGraph(48, 1.0);
  Rng rng1(12);
  Rng rng2(12);
  const ForEachCutSketch foreach_sketch(g, 0.1, rng1);
  const BenczurKargerSparsifier forall_sketch(g, 0.1, rng2);
  EXPECT_LT(foreach_sketch.SizeInBits(), forall_sketch.SizeInBits());
}

TEST(DegreeComplementSketchTest, SingletonCutsAreExact) {
  // Singleton cuts have no internal edges, so the degree table answers
  // them with zero error regardless of the sample.
  Rng gen_rng(20);
  const UndirectedGraph g =
      RandomUndirectedGraph(20, 0.4, 0.5, 2.0, true, gen_rng);
  Rng rng(21);
  const DegreeComplementSketch sketch(g, 0.3, rng);
  for (int v = 0; v < 20; ++v) {
    const VertexSet side = MakeVertexSet(20, {v});
    EXPECT_NEAR(sketch.EstimateCut(side), g.CutWeight(side), 1e-9);
  }
}

TEST(DegreeComplementSketchTest, UnbiasedOnGeneralCuts) {
  Rng gen_rng(22);
  const UndirectedGraph g = CompleteGraph(16, 1.0);
  const VertexSet side = MakeVertexSet(16, {0, 1, 2, 3, 4, 5});
  const double exact = g.CutWeight(side);
  std::vector<double> estimates;
  for (uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed + 7);
    const DegreeComplementSketch sketch(g, 0.3, rng);
    estimates.push_back(sketch.EstimateCut(side));
  }
  EXPECT_NEAR(Mean(estimates), exact, 0.07 * exact);
}

TEST(DegreeComplementSketchTest, ErrorGrowsWithInternalWeightNotCut) {
  // Two cuts with the same value but very different internal weights: the
  // degree-complement estimator is far noisier on the dense-side cut,
  // while the crossing-edge estimator treats them alike. This is the
  // ablation's point.
  const int n = 24;
  UndirectedGraph g(n);
  // Dense block on {0..15}, sparse tail 16..23, one crossing edge each.
  for (int u = 0; u < 16; ++u) {
    for (int v = u + 1; v < 16; ++v) g.AddEdge(u, v, 1.0);
  }
  for (int v = 16; v < n; ++v) g.AddEdge(0, v, 1.0);
  // Cut A: separate the dense block (internal weight 120, cut 8).
  VertexSet dense_side(static_cast<size_t>(n), 0);
  for (int v = 0; v < 16; ++v) dense_side[static_cast<size_t>(v)] = 1;
  // Cut B: separate the tail (internal weight 0, cut 8).
  const VertexSet sparse_side = ComplementSet(dense_side);
  ASSERT_DOUBLE_EQ(g.CutWeight(dense_side), 8.0);
  std::vector<double> dense_err, sparse_err;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed + 100);
    const DegreeComplementSketch sketch(g, 0.4, rng);
    dense_err.push_back(std::abs(sketch.EstimateCut(dense_side) - 8.0));
    // For the complement side, degrees differ but internal weight is 0 on
    // the tail side of the identity only if we sum over the tail:
    sparse_err.push_back(std::abs(sketch.EstimateCut(sparse_side) - 8.0));
  }
  // Estimating via the sparse side is exact only when its internal weight
  // is 0 — but EstimateCut(complement) sums tail degrees (internal weight
  // 0), so it is exact; the dense side is noisy.
  EXPECT_LE(Mean(sparse_err), 1e-9);
  EXPECT_GE(Mean(dense_err), 0.5);
}

TEST(DegreeComplementSketchTest, SizeIncludesDegreeTable) {
  const UndirectedGraph g = CompleteGraph(32, 1.0);
  Rng rng(23);
  const DegreeComplementSketch sketch(g, 0.3, rng);
  EXPECT_GE(sketch.SizeInBits(), 64 * 32);
}

}  // namespace
}  // namespace dcs
