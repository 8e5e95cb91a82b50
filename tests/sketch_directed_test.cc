// Directed sketches for β-balanced graphs: the vertex-imbalance identity,
// the exact baseline, the symmetrize-and-difference estimators, the direct
// directed importance sampler, and median boosting.

#include <cmath>
#include <memory>

#include "graph/balance.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "sketch/backend_registry.h"
#include "sketch/directed_sketches.h"
#include "sketch/exact_sketch.h"
#include "util/random.h"
#include "util/stats.h"

namespace dcs {
namespace {

TEST(VertexImbalanceTest, SumsToDirectedDifferenceOnEveryCut) {
  Rng rng(1);
  const DirectedGraph g = RandomBalancedDigraph(12, 0.4, 3.0, rng);
  const std::vector<double> imbalance = VertexImbalances(g);
  Rng cut_rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    VertexSet side(12);
    for (auto& bit : side) bit = static_cast<uint8_t>(cut_rng.Next() & 1);
    if (!IsProperCutSide(side)) continue;
    double d_linear = 0;
    for (int v = 0; v < 12; ++v) {
      if (side[static_cast<size_t>(v)]) {
        d_linear += imbalance[static_cast<size_t>(v)];
      }
    }
    const double d_exact =
        g.CutWeight(side) - g.CutWeight(ComplementSet(side));
    EXPECT_NEAR(d_linear, d_exact, 1e-9);
  }
}

TEST(VertexImbalanceTest, EulerianGraphHasZeroImbalance) {
  Rng rng(3);
  const DirectedGraph g = RandomEulerianDigraph(10, 12, 5, rng);
  for (double d : VertexImbalances(g)) {
    EXPECT_NEAR(d, 0.0, 1e-9);
  }
}

TEST(DirectedForEachSketchTest, EstimatesCutsOnBalancedGraph) {
  Rng gen_rng(4);
  const double beta = 2.0;
  const DirectedGraph g = RandomBalancedDigraph(20, 0.6, beta, gen_rng);
  const VertexSet side = MakeVertexSet(20, {0, 2, 4, 6, 8, 10});
  const double exact = g.CutWeight(side);
  std::vector<double> estimates;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    const DirectedForEachSketch sketch(g, 0.3, beta, rng);
    estimates.push_back(sketch.EstimateCut(side));
  }
  // Unbiased across construction randomness.
  EXPECT_NEAR(Mean(estimates), exact, 0.05 * exact);
}

TEST(DirectedForEachSketchTest, SymmetrizationEpsilonScalesWithBeta) {
  Rng rng(5);
  const DirectedGraph g = RandomBalancedDigraph(10, 0.5, 4.0, rng);
  Rng r1(6), r2(6);
  const DirectedForEachSketch low_beta(g, 0.2, 1.0, r1);
  const DirectedForEachSketch high_beta(g, 0.2, 9.0, r2);
  EXPECT_GT(low_beta.symmetrization_epsilon(),
            high_beta.symmetrization_epsilon());
}

TEST(DirectedForAllSketchTest, AllCutsWithinTolerance) {
  Rng gen_rng(7);
  const double beta = 2.0;
  const DirectedGraph g = RandomBalancedDigraph(10, 0.8, beta, gen_rng);
  Rng rng(8);
  const DirectedForAllSketch sketch(g, 0.3, beta, rng, 3.0);
  const int n = g.num_vertices();
  double worst = 0;
  for (uint64_t mask = 1; mask + 1 < (1ULL << n) - 1; ++mask) {
    VertexSet side(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
      side[static_cast<size_t>(v)] = static_cast<uint8_t>((mask >> v) & 1);
    }
    if (!IsProperCutSide(side)) continue;
    const double exact = g.CutWeight(side);
    if (exact <= 0) continue;
    worst = std::max(worst,
                     std::abs(sketch.EstimateCut(side) - exact) / exact);
  }
  EXPECT_LE(worst, 0.45);
}

TEST(DirectedForAllSketchTest, ExactGraphIdentityWhenSamplingIsDense) {
  // With epsilon small on a tiny graph, the sparsifier keeps every edge
  // (p = 1) and the estimator becomes exact: (u + d)/2 == w(S, V∖S).
  Rng gen_rng(9);
  const DirectedGraph g = RandomBalancedDigraph(8, 0.6, 2.0, gen_rng);
  Rng rng(10);
  const DirectedForAllSketch sketch(g, 0.05, 2.0, rng, 10.0);
  for (int v = 0; v < 8; ++v) {
    const VertexSet side = MakeVertexSet(8, {v});
    EXPECT_NEAR(sketch.EstimateCut(side), g.CutWeight(side), 1e-9);
  }
}

TEST(DirectedImportanceSamplerTest, UnbiasedDirectedCuts) {
  Rng gen_rng(11);
  const double beta = 3.0;
  const DirectedGraph g = RandomBalancedDigraph(14, 0.5, beta, gen_rng);
  const VertexSet side = MakeVertexSet(14, {1, 3, 5, 7});
  const double exact = g.CutWeight(side);
  std::vector<double> estimates;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Rng rng(seed + 50);
    const DirectedImportanceSamplerSketch sketch(g, 0.4, beta, rng);
    estimates.push_back(sketch.EstimateCut(side));
  }
  EXPECT_NEAR(Mean(estimates), exact, 0.06 * exact);
}

TEST(DirectedImportanceSamplerTest, SampleIsSubgraphWithReweighting) {
  Rng gen_rng(12);
  const DirectedGraph g = RandomBalancedDigraph(16, 0.5, 2.0, gen_rng);
  Rng rng(13);
  const DirectedImportanceSamplerSketch sketch(g, 0.5, 2.0, rng, 0.2);
  EXPECT_LE(sketch.sample().num_edges(), g.num_edges());
  for (const Edge& e : sketch.sample().edges()) {
    EXPECT_GT(e.weight, 0);
  }
}

TEST(ExactDirectedSketchTest, AnswersEveryCutExactly) {
  Rng rng(1);
  const DirectedGraph g = RandomBalancedDigraph(12, 0.4, 2.0, rng);
  const ExactDirectedSketch sketch{DirectedGraph(g)};
  for (uint64_t mask = 1; mask + 1 < (uint64_t{1} << 12); ++mask) {
    VertexSet side(12);
    for (int v = 0; v < 12; ++v) {
      side[static_cast<size_t>(v)] = static_cast<uint8_t>((mask >> v) & 1);
    }
    EXPECT_DOUBLE_EQ(sketch.EstimateCut(side), g.CutWeight(side));
  }
  EXPECT_GT(sketch.SizeInBits(), 0);
}

TEST(DirectedSketchSizesTest, SizeOrderingMatchesTheory) {
  // At equal ε and β: for-each ≤ for-all ≤ exact on a dense enough graph.
  Rng gen_rng(14);
  const DirectedGraph g = RandomBalancedDigraph(48, 0.9, 2.0, gen_rng);
  Rng r1(15), r2(15), r3(15);
  const DirectedForEachSketch foreach_sketch(g, 0.15, 2.0, r1);
  const DirectedForAllSketch forall_sketch(g, 0.15, 2.0, r2);
  const ExactDirectedSketch exact_sketch{DirectedGraph(g)};
  EXPECT_LT(foreach_sketch.SizeInBits(), forall_sketch.SizeInBits());
  EXPECT_LT(forall_sketch.SizeInBits(), exact_sketch.SizeInBits());
}

TEST(MedianOfDirectedSketchesTest, MedianTracksExactValue) {
  Rng gen_rng(30);
  const DirectedGraph g = RandomBalancedDigraph(18, 0.5, 2.0, gen_rng);
  const VertexSet side = MakeVertexSet(18, {0, 2, 4, 6});
  const double exact = g.CutWeight(side);
  Rng rng(31);
  std::vector<std::unique_ptr<DirectedCutSketch>> parts;
  int64_t expected_bits = 0;
  for (int b = 0; b < 5; ++b) {
    auto sketch =
        std::make_unique<DirectedForEachSketch>(g, 0.3, 2.0, rng);
    expected_bits += sketch->SizeInBits();
    parts.push_back(std::move(sketch));
  }
  const MedianOfDirectedSketches median(std::move(parts));
  EXPECT_EQ(median.count(), 5);
  EXPECT_EQ(median.SizeInBits(), expected_bits);
  EXPECT_NEAR(median.EstimateCut(side), exact, 0.25 * exact);
}

TEST(MedianOfDirectedSketchesTest, MedianReducesFailureProbability) {
  // The complete digraph on 16 vertices, every pair joined both ways.
  const UndirectedGraph complete = CompleteGraph(16, 1.0);
  DirectedGraph g(16);
  for (const Edge& e : complete.edges()) {
    g.AddEdge(e.src, e.dst, e.weight);
    g.AddEdge(e.dst, e.src, e.weight);
  }
  const VertexSet side = MakeVertexSet(16, {0, 1, 7});
  const double exact = g.CutWeight(side);
  int single_hits = 0;
  int median_hits = 0;
  const int trials = 60;
  const double tolerance = 0.35 * exact;
  for (uint64_t seed = 0; seed < trials; ++seed) {
    Rng rng(seed * 17 + 5);
    const DirectedForEachSketch single(g, 0.25, 1.0, rng, 2.0);
    if (std::abs(single.EstimateCut(side) - exact) <= tolerance) {
      ++single_hits;
    }
    std::vector<std::unique_ptr<DirectedCutSketch>> parts;
    for (int b = 0; b < 5; ++b) {
      parts.push_back(
          std::make_unique<DirectedForEachSketch>(g, 0.25, 1.0, rng, 2.0));
    }
    const MedianOfDirectedSketches median(std::move(parts));
    if (std::abs(median.EstimateCut(side) - exact) <= tolerance) {
      ++median_hits;
    }
  }
  EXPECT_GE(median_hits, single_hits);
  EXPECT_GE(median_hits, (2 * trials) / 3);
}

TEST(MedianOfDirectedSketchesTest, RegistryBoostSizeIsSumOfParts) {
  // The registry's median boost builds copy i from SubtaskSeed(seed, i).
  Rng gen_rng(14);
  const DirectedGraph g = RandomBalancedDigraph(12, 0.6, 2.0, gen_rng);
  BackendOptions options;
  options.epsilon = 0.3;
  options.beta = 2.0;
  options.seed = 14;
  options.median_boost = 3;
  const auto median = BuildBackendSketch("foreach", g, options);
  ASSERT_TRUE(median.ok()) << median.status().message();
  int64_t expected = 0;
  for (int b = 0; b < 3; ++b) {
    Rng rng(SubtaskSeed(options.seed, b));
    expected += DirectedForEachSketch(g, options.epsilon, options.beta, rng,
                                      options.oversample_c)
                    .SizeInBits();
  }
  EXPECT_EQ((*median)->SizeInBits(), expected);
}

}  // namespace
}  // namespace dcs
