// Cycle peeling (the β = 1 extreme of the paper's balanced family) and the
// `eulerian` backend that samples the peeled cycles.

#include "sketch/eulerian_sparsifier.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "degrees.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "sketch/backend_registry.h"
#include "util/random.h"
#include "util/stats.h"

namespace dcs {
namespace {

std::unique_ptr<DirectedCutSketch> EulerianSketch(const DirectedGraph& graph,
                                                  double epsilon,
                                                  double oversample_c,
                                                  uint64_t seed) {
  BackendOptions options;
  options.epsilon = epsilon;
  options.oversample_c = oversample_c;
  options.seed = seed;
  return BuildBackendSketch("eulerian", graph, options).value();
}

TEST(CycleDecompositionTest, SingleCycleGraph) {
  DirectedGraph g(4);
  for (int v = 0; v < 4; ++v) g.AddEdge(v, (v + 1) % 4, 2.5);
  const CyclePeeling peeling = PeelCycles(g);
  ASSERT_EQ(peeling.cycles.size(), 1u);
  EXPECT_EQ(peeling.cycles[0].vertices.size(), 4u);
  EXPECT_DOUBLE_EQ(peeling.cycles[0].weight, 2.5);
  EXPECT_EQ(peeling.residual.num_edges(), 0);
}

TEST(CycleDecompositionTest, TwoCyclesSharingAVertex) {
  DirectedGraph g(5);
  // Cycle A: 0→1→2→0; cycle B: 0→3→4→0.
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(2, 0, 1.0);
  g.AddEdge(0, 3, 1.0);
  g.AddEdge(3, 4, 1.0);
  g.AddEdge(4, 0, 1.0);
  const CyclePeeling peeling = PeelCycles(g);
  EXPECT_EQ(peeling.cycles.size(), 2u);
  double total = 0;
  for (const WeightedCycle& c : peeling.cycles) {
    total += c.weight * static_cast<double>(c.vertices.size());
  }
  EXPECT_DOUBLE_EQ(total, g.TotalWeight());
  EXPECT_EQ(peeling.residual.num_edges(), 0);
}

TEST(CycleDecompositionTest, WeightedCycleSplit) {
  // A 2-cycle with asymmetric multiplicities decomposes into cycles whose
  // total reproduces the weights exactly.
  DirectedGraph g(3);
  g.AddEdge(0, 1, 3.0);
  g.AddEdge(1, 0, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 0, 2.0);
  g.AddEdge(0, 1, 0.0);  // zero-weight edge must be ignored
  const CyclePeeling peeling = PeelCycles(g);
  EXPECT_EQ(peeling.residual.num_edges(), 0);
  const DirectedGraph rebuilt = GraphFromCycles(3, peeling.cycles);
  for (int v = 0; v < 3; ++v) {
    EXPECT_NEAR(OutDegree(rebuilt, v), OutDegree(g, v), 1e-9);
    EXPECT_NEAR(InDegree(rebuilt, v), InDegree(g, v), 1e-9);
  }
  // Cut values are reproduced exactly, not just degrees.
  for (int v = 0; v < 3; ++v) {
    const VertexSet side = MakeVertexSet(3, {v});
    EXPECT_NEAR(rebuilt.CutWeight(side), g.CutWeight(side), 1e-9);
  }
}

TEST(CycleDecompositionTest, RandomEulerianReconstructsExactly) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const DirectedGraph g = RandomEulerianDigraph(12, 20, 6, rng);
    const CyclePeeling peeling = PeelCycles(g);
    EXPECT_EQ(peeling.residual.num_edges(), 0) << "seed " << seed;
    const DirectedGraph rebuilt = GraphFromCycles(12, peeling.cycles);
    Rng cut_rng(seed + 50);
    for (int trial = 0; trial < 20; ++trial) {
      VertexSet side(12);
      for (auto& b : side) b = static_cast<uint8_t>(cut_rng.Next() & 1);
      if (!IsProperCutSide(side)) continue;
      EXPECT_NEAR(rebuilt.CutWeight(side), g.CutWeight(side), 1e-9)
          << "seed " << seed;
    }
  }
}

TEST(CycleDecompositionTest, NonEulerianPathIsAllResidual) {
  DirectedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);  // imbalance at 0 and 2: no cycle anywhere
  const CyclePeeling peeling = PeelCycles(g);
  EXPECT_TRUE(peeling.cycles.empty());
  ASSERT_EQ(peeling.residual.num_edges(), 2);
  for (int v = 0; v < 3; ++v) {
    EXPECT_DOUBLE_EQ(OutDegree(peeling.residual, v), OutDegree(g, v));
    EXPECT_DOUBLE_EQ(InDegree(peeling.residual, v), InDegree(g, v));
  }
}

// The `eulerian` backend on Eulerian inputs. At oversample_c = 0.5 and
// ε = 0.5 most cycles are kept with probability < 1, so the properties
// below are about a real sample, not a copy of the input.

TEST(EulerianBackendTest, OutputIsExactlyEulerian) {
  // Exactly Eulerian: every singleton's out-weight equals its in-weight.
  Rng rng(7);
  const DirectedGraph g = RandomEulerianDigraph(16, 40, 8, rng);
  const auto sketch = EulerianSketch(g, 0.5, 0.5, 8);
  for (int v = 0; v < 16; ++v) {
    const VertexSet side = MakeVertexSet(16, {v});
    EXPECT_NEAR(sketch->EstimateCut(side),
                sketch->EstimateCut(ComplementSet(side)), 1e-9);
  }
}

TEST(EulerianBackendTest, OutputCutsAreOneBalanced) {
  Rng rng(9);
  const DirectedGraph g = RandomEulerianDigraph(10, 30, 5, rng);
  const auto sketch = EulerianSketch(g, 0.5, 0.5, 10);
  // Every cut of an Eulerian graph has equal weight in both directions.
  Rng cut_rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    VertexSet side(10);
    for (auto& b : side) b = static_cast<uint8_t>(cut_rng.Next() & 1);
    if (!IsProperCutSide(side)) continue;
    EXPECT_NEAR(sketch->EstimateCut(side),
                sketch->EstimateCut(ComplementSet(side)), 1e-9);
  }
}

TEST(EulerianBackendTest, CutsAreUnbiased) {
  Rng rng(12);
  const DirectedGraph g = RandomEulerianDigraph(12, 60, 6, rng);
  const VertexSet side = MakeVertexSet(12, {0, 2, 4, 6});
  const double exact = g.CutWeight(side);
  std::vector<double> estimates;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    estimates.push_back(EulerianSketch(g, 0.5, 0.5, seed)->EstimateCut(side));
  }
  // The builds really sample: not every estimate is the exact value.
  double spread = 0;
  for (const double estimate : estimates) {
    spread = std::max(spread, std::abs(estimate - exact));
  }
  EXPECT_GT(spread, 1e-6);
  EXPECT_NEAR(Mean(estimates), exact, 0.08 * exact + 0.2);
}

TEST(EulerianBackendTest, LargeOversamplingIsLossless) {
  // A huge oversample_c keeps every cycle with probability 1.
  Rng rng(13);
  const DirectedGraph g = RandomEulerianDigraph(8, 15, 4, rng);
  const auto sketch = EulerianSketch(g, 0.5, 1e9, 14);
  for (int v = 0; v < 8; ++v) {
    const VertexSet side = MakeVertexSet(8, {v});
    EXPECT_NEAR(sketch->EstimateCut(side), g.CutWeight(side), 1e-9);
  }
}

TEST(EulerianBackendTest, SmallerThanExactAtLowOversampling) {
  Rng rng(15);
  const DirectedGraph g = RandomEulerianDigraph(20, 120, 8, rng);
  BackendOptions options;
  const auto exact = BuildBackendSketch("exact", g, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(EulerianSketch(g, 0.5, 0.5, 16)->SizeInBits(),
            (*exact)->SizeInBits());
}

}  // namespace
}  // namespace dcs
