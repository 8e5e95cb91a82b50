#include "graph/generators.h"

#include <algorithm>
#include <cmath>

#include "degrees.h"
#include "graph/balance.h"
#include "graph/connectivity.h"
#include "graph/zoo.h"
#include "gtest/gtest.h"
#include "mincut/stoer_wagner.h"

namespace dcs {
namespace {

TEST(GeneratorsTest, BalancedDigraphIsStronglyConnected) {
  Rng rng(1);
  const DirectedGraph g = RandomBalancedDigraph(20, 0.1, 4.0, rng);
  EXPECT_TRUE(IsStronglyConnected(g));
}

TEST(GeneratorsTest, BalancedDigraphPerEdgeRatio) {
  Rng rng(2);
  const DirectedGraph g = RandomBalancedDigraph(15, 0.3, 5.0, rng);
  const auto certificate = PerEdgeBalanceCertificate(g);
  ASSERT_TRUE(certificate.has_value());
  EXPECT_NEAR(*certificate, 5.0, 1e-9);
}

TEST(GeneratorsTest, BalancedDigraphEdgeCountGrowsWithProbability) {
  Rng rng1(3);
  Rng rng2(3);
  const DirectedGraph sparse = RandomBalancedDigraph(40, 0.05, 2.0, rng1);
  const DirectedGraph dense = RandomBalancedDigraph(40, 0.8, 2.0, rng2);
  EXPECT_LT(sparse.num_edges(), dense.num_edges());
}

TEST(GeneratorsTest, EulerianDigraphHasEqualInOutDegrees) {
  Rng rng(4);
  const DirectedGraph g = RandomEulerianDigraph(12, 20, 6, rng);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(OutDegree(g, v), InDegree(g, v)) << "vertex " << v;
  }
}

TEST(GeneratorsTest, EulerianDigraphIsOneBalanced) {
  Rng rng(5);
  const DirectedGraph g = RandomEulerianDigraph(10, 15, 5, rng);
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_NEAR(MeasureBalanceExact(g), 1.0, 1e-9);
}

TEST(GeneratorsTest, CompleteBipartiteDigraphStructure) {
  const DirectedGraph g = CompleteBipartiteDigraph(3, 4, 2.0, 0.5);
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 24);
  // Left vertices only have forward out-edges.
  EXPECT_DOUBLE_EQ(OutDegree(g, 0), 8.0);
  EXPECT_DOUBLE_EQ(InDegree(g, 0), 2.0);
}

TEST(GeneratorsTest, RandomUndirectedGraphConnectedFlag) {
  Rng rng(6);
  const UndirectedGraph g =
      RandomUndirectedGraph(30, 0.0, 1.0, 1.0, /*ensure_connected=*/true, rng);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(g.num_edges(), 29);  // just the Hamiltonian path
}

TEST(GeneratorsTest, RandomUndirectedGraphWeightRange) {
  Rng rng(7);
  const UndirectedGraph g =
      RandomUndirectedGraph(20, 0.5, 2.0, 3.0, false, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 2.0);
    EXPECT_LE(e.weight, 3.0);
  }
}

TEST(GeneratorsTest, CompleteGraphEdgeCount) {
  const UndirectedGraph g = CompleteGraph(6, 1.0);
  EXPECT_EQ(g.num_edges(), 15);
  for (int v = 0; v < 6; ++v) EXPECT_DOUBLE_EQ(Degree(g, v), 5.0);
}

TEST(GeneratorsTest, CycleGraphMinCutIsTwo) {
  const UndirectedGraph g = CycleGraph(9, 1.5);
  const GlobalMinCut cut = StoerWagnerMinCut(g);
  EXPECT_DOUBLE_EQ(cut.value, 3.0);  // two edges of weight 1.5
}

TEST(GeneratorsTest, DumbbellMinCutEqualsBridgeCount) {
  for (int bridges : {1, 2, 4}) {
    const UndirectedGraph g = DumbbellGraph(8, bridges);
    const GlobalMinCut cut = StoerWagnerMinCut(g);
    EXPECT_DOUBLE_EQ(cut.value, static_cast<double>(bridges))
        << "bridges=" << bridges;
    EXPECT_EQ(SetSize(cut.side) % 8, 0);  // splits along the cliques
  }
}

TEST(GeneratorsTest, MatchingUnionIsRegular) {
  Rng rng(8);
  const UndirectedGraph g = UnionOfRandomMatchings(16, 5, rng);
  EXPECT_EQ(g.num_edges(), 5 * 8);
  for (int v = 0; v < 16; ++v) EXPECT_DOUBLE_EQ(Degree(g, v), 5.0);
}

TEST(GeneratorsTest, GridGraphStructure) {
  const UndirectedGraph g = GridGraph(4, 6);
  EXPECT_EQ(g.num_vertices(), 24);
  EXPECT_EQ(g.num_edges(), 4 * 5 + 3 * 6);  // horizontal + vertical
  EXPECT_TRUE(IsConnected(g));
  // Corner degree 2, edge degree 3, interior degree 4.
  EXPECT_DOUBLE_EQ(Degree(g, 0), 2.0);
  EXPECT_DOUBLE_EQ(Degree(g, 1), 3.0);
  EXPECT_DOUBLE_EQ(Degree(g, 7), 4.0);
  // The minimum cut isolates a corner (degree 2).
  EXPECT_DOUBLE_EQ(StoerWagnerMinCut(g).value, 2.0);
}

TEST(GeneratorsTest, GridGraphDegenerateShapes) {
  const UndirectedGraph path = GridGraph(1, 5);
  EXPECT_EQ(path.num_edges(), 4);
  const UndirectedGraph column = GridGraph(5, 1);
  EXPECT_EQ(column.num_edges(), 4);
}

TEST(GeneratorsTest, PreferentialAttachmentShape) {
  Rng rng(9);
  const int m = 3;
  const UndirectedGraph g = PreferentialAttachmentGraph(60, m, rng);
  EXPECT_TRUE(IsConnected(g));
  // Seed clique C(4,2) = 6 edges plus 3 per additional vertex.
  EXPECT_EQ(g.num_edges(), 6 + (60 - 4) * 3);
  // Every non-seed vertex has degree >= m; the oldest vertices are hubs.
  for (int v = m + 1; v < 60; ++v) EXPECT_GE(Degree(g, v), 3.0);
  double max_degree = 0;
  for (int v = 0; v < 60; ++v) max_degree = std::max(max_degree, Degree(g, v));
  EXPECT_GE(max_degree, 10.0);  // skewed degrees
}

// ---- Graph-family zoo (graph/zoo.h) ----

TEST(ZooTest, EveryFamilyIsSeedDeterministic) {
  for (const ZooFamily family : AllZooFamilies()) {
    for (const double beta : {1.0, 8.0}) {
      ZooOptions options;
      options.n = 40;
      options.beta = beta;
      options.seed = 77;
      const ZooInstance a = MakeZooInstance(family, options);
      const ZooInstance b = MakeZooInstance(family, options);
      ASSERT_EQ(a.graph.num_vertices(), b.graph.num_vertices())
          << ZooFamilyName(family);
      ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges())
          << ZooFamilyName(family);
      for (int64_t i = 0; i < a.graph.num_edges(); ++i) {
        ASSERT_EQ(a.graph.edges()[static_cast<size_t>(i)],
                  b.graph.edges()[static_cast<size_t>(i)])
            << ZooFamilyName(family) << " edge " << i;
      }
      ASSERT_EQ(a.planted_min_cut.has_value(), b.planted_min_cut.has_value());
      if (a.planted_min_cut.has_value()) {
        EXPECT_DOUBLE_EQ(*a.planted_min_cut, *b.planted_min_cut);
        EXPECT_EQ(*a.planted_side, *b.planted_side);
      }
    }
  }
}

TEST(ZooTest, RandomFamiliesChangeWithTheSeed) {
  // The randomized families must actually use the seed; the structured
  // ones (dumbbell, layered_bipartite) are the same graph for any seed.
  for (const ZooFamily family : {ZooFamily::kPowerLaw, ZooFamily::kExpander,
                                 ZooFamily::kPlantedCut}) {
    ZooOptions options;
    options.n = 40;
    options.beta = 2.0;
    options.seed = 1;
    const ZooInstance a = MakeZooInstance(family, options);
    options.seed = 2;
    const ZooInstance b = MakeZooInstance(family, options);
    bool differs = a.graph.num_edges() != b.graph.num_edges();
    for (int64_t i = 0; !differs && i < a.graph.num_edges(); ++i) {
      differs = !(a.graph.edges()[static_cast<size_t>(i)] ==
                  b.graph.edges()[static_cast<size_t>(i)]);
    }
    EXPECT_TRUE(differs) << ZooFamilyName(family);
  }
}

TEST(ZooTest, EveryFamilyIsStronglyConnectedAndCertified) {
  for (const ZooFamily family : AllZooFamilies()) {
    for (const double beta : {1.0, 4.0}) {
      ZooOptions options;
      options.n = 32;
      options.beta = beta;
      options.seed = 5;
      const ZooInstance instance = MakeZooInstance(family, options);
      EXPECT_TRUE(IsStronglyConnected(instance.graph))
          << ZooFamilyName(family);
      const auto certificate = PerEdgeBalanceCertificate(instance.graph);
      ASSERT_TRUE(certificate.has_value()) << ZooFamilyName(family);
      EXPECT_NEAR(*certificate, beta, 1e-9) << ZooFamilyName(family);
      EXPECT_DOUBLE_EQ(instance.beta_certificate, beta);
    }
  }
}

TEST(ZooTest, FamilyShapesMatchTheirConstructions) {
  ZooOptions options;
  options.n = 40;
  options.beta = 2.0;
  options.seed = 9;

  // Power-law: seed clique C(4,2) pairs plus 3 pairs per later vertex,
  // two directed edges per pair; hubs emerge from preferential attachment.
  const ZooInstance power =
      MakeZooInstance(ZooFamily::kPowerLaw, options);
  EXPECT_EQ(power.graph.num_vertices(), 40);
  EXPECT_EQ(power.graph.num_edges(), 2 * (6 + (40 - 4) * 3));
  double max_out = 0;
  for (int v = 0; v < 40; ++v) {
    max_out = std::max(max_out, OutDegree(power.graph, v));
  }
  EXPECT_GE(max_out, 8.0);

  // Expander: union of 4 perfect matchings of balanced pairs. Each
  // matching touches every vertex with one pair (weight 1 one way, 1/β
  // back), so out+in weight is exactly 4·(1 + 1/β) at every vertex.
  const ZooInstance expander =
      MakeZooInstance(ZooFamily::kExpander, options);
  EXPECT_EQ(expander.graph.num_vertices(), 40);
  EXPECT_EQ(expander.graph.num_edges(), 4 * (40 / 2) * 2);
  for (int v = 0; v < 40; ++v) {
    const double total =
        OutDegree(expander.graph, v) + InDegree(expander.graph, v);
    EXPECT_NEAR(total, 4 * (1.0 + 1.0 / options.beta), 1e-9)
        << "vertex " << v;
  }

  // Planted cut / dumbbell: planted side is exactly half the vertices and
  // its cut weight equals the reported planted value.
  for (const ZooFamily family :
       {ZooFamily::kPlantedCut, ZooFamily::kDumbbell}) {
    const ZooInstance instance = MakeZooInstance(family, options);
    ASSERT_TRUE(instance.planted_side.has_value()) << ZooFamilyName(family);
    EXPECT_EQ(SetSize(*instance.planted_side),
              instance.graph.num_vertices() / 2);
    EXPECT_NEAR(instance.graph.CutWeight(*instance.planted_side),
                *instance.planted_min_cut, 1e-9)
        << ZooFamilyName(family);
  }

  // Layered bipartite: 4 layers of width 10, complete bipartite between
  // consecutive layers with wraparound → 4·10·10 pairs.
  const ZooInstance layered =
      MakeZooInstance(ZooFamily::kLayeredBipartite, options);
  EXPECT_EQ(layered.graph.num_vertices(), 40);
  EXPECT_EQ(layered.graph.num_edges(), 2 * 4 * 10 * 10);

  // Families with parity constraints round n down to a multiple of 4.
  options.n = 43;
  EXPECT_EQ(MakeZooInstance(ZooFamily::kExpander, options)
                .graph.num_vertices(), 40);
  EXPECT_EQ(MakeZooInstance(ZooFamily::kPowerLaw, options)
                .graph.num_vertices(), 43);
}

TEST(ZooTest, FamilyNamesRoundTrip) {
  for (const ZooFamily family : AllZooFamilies()) {
    const auto found = FindZooFamily(ZooFamilyName(family));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, family);
  }
  EXPECT_FALSE(FindZooFamily("erdos_renyi").has_value());
}

TEST(GeneratorsTest, GeneratorsAreDeterministicPerSeed) {
  Rng rng_a(99);
  Rng rng_b(99);
  const UndirectedGraph a = RandomUndirectedGraph(25, 0.3, 1, 2, true, rng_a);
  const UndirectedGraph b = RandomUndirectedGraph(25, 0.3, 1, 2, true, rng_b);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int64_t i = 0; i < a.num_edges(); ++i) {
    EXPECT_EQ(a.edges()[static_cast<size_t>(i)],
              b.edges()[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace dcs
