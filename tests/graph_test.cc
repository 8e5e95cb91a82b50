#include <cmath>

#include "degrees.h"
#include "graph/connectivity.h"
#include "graph/digraph.h"
#include "graph/types.h"
#include "graph/ugraph.h"
#include "gtest/gtest.h"

namespace dcs {
namespace {

TEST(VertexSetTest, MakeAndComplement) {
  const VertexSet s = MakeVertexSet(5, {1, 3});
  EXPECT_EQ(SetSize(s), 2);
  EXPECT_TRUE(IsProperCutSide(s));
  const VertexSet c = ComplementSet(s);
  EXPECT_EQ(SetSize(c), 3);
  EXPECT_TRUE(c[0] && !c[1] && c[2] && !c[3] && c[4]);
}

TEST(VertexSetTest, ProperCutSideRejectsEmptyAndFull) {
  EXPECT_FALSE(IsProperCutSide(MakeVertexSet(3, {})));
  EXPECT_FALSE(IsProperCutSide(MakeVertexSet(3, {0, 1, 2})));
  EXPECT_TRUE(IsProperCutSide(MakeVertexSet(3, {2})));
}

TEST(DirectedGraphTest, BasicAccessors) {
  DirectedGraph g(4);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2, 3.0);
  g.AddEdge(2, 0, 1.5);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 6.5);
  EXPECT_DOUBLE_EQ(OutDegree(g, 0), 2.0);
  EXPECT_DOUBLE_EQ(InDegree(g, 0), 1.5);
  EXPECT_DOUBLE_EQ(OutDegree(g, 3), 0.0);
}

TEST(DirectedGraphTest, CutWeightIsDirectional) {
  DirectedGraph g(3);
  g.AddEdge(0, 1, 5.0);
  g.AddEdge(1, 0, 2.0);
  g.AddEdge(1, 2, 1.0);
  const VertexSet s = MakeVertexSet(3, {0});
  EXPECT_DOUBLE_EQ(g.CutWeight(s), 5.0);
  EXPECT_DOUBLE_EQ(g.CutWeight(ComplementSet(s)), 2.0);
}

TEST(DirectedGraphTest, CrossWeight) {
  DirectedGraph g(4);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(0, 3, 2.0);
  g.AddEdge(2, 0, 4.0);
  const VertexSet from = MakeVertexSet(4, {0, 1});
  const VertexSet to = MakeVertexSet(4, {2, 3});
  EXPECT_DOUBLE_EQ(g.CrossWeight(from, to), 3.0);
  EXPECT_DOUBLE_EQ(g.CrossWeight(to, from), 4.0);
}

TEST(DirectedGraphTest, ReversedFlipsEveryEdge) {
  DirectedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  const DirectedGraph r = g.Reversed();
  const VertexSet s = MakeVertexSet(3, {0});
  EXPECT_DOUBLE_EQ(r.CutWeight(s), 0.0);
  EXPECT_DOUBLE_EQ(r.CutWeight(ComplementSet(s)), 1.0);
}

TEST(DirectedGraphTest, SymmetrizedCoalescesPairs) {
  DirectedGraph g(3);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 0, 3.0);
  g.AddEdge(1, 2, 1.0);
  const UndirectedGraph sym = g.Symmetrized();
  EXPECT_EQ(sym.num_edges(), 2);
  const VertexSet s = MakeVertexSet(3, {0});
  EXPECT_DOUBLE_EQ(sym.CutWeight(s), 5.0);
  // Symmetrization cut = forward + backward directed cuts, for every cut.
  EXPECT_DOUBLE_EQ(sym.CutWeight(s),
                   g.CutWeight(s) + g.CutWeight(ComplementSet(s)));
}

TEST(DirectedGraphTest, AdjacencyListsTrackEdges) {
  DirectedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(1, 0, 1.0);
  const CutIndex index(g);
  EXPECT_EQ(index.out().offsets[1] - index.out().offsets[0], 2);
  EXPECT_EQ(index.in().offsets[1] - index.in().offsets[0], 1);
  EXPECT_EQ(index.out().neighbors[0], 1);
  EXPECT_EQ(index.out().neighbors[1], 2);
  EXPECT_EQ(index.in().neighbors[0], 1);
}

TEST(DirectedGraphDeathTest, RejectsSelfLoopsAndBadVertices) {
  DirectedGraph g(2);
  EXPECT_DEATH(g.AddEdge(0, 0, 1.0), "CHECK");
  EXPECT_DEATH(g.AddEdge(0, 2, 1.0), "CHECK");
  EXPECT_DEATH(g.AddEdge(0, 1, -1.0), "CHECK");
}

TEST(UndirectedGraphTest, BasicAccessors) {
  UndirectedGraph g(4);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(3, 1, 4.0);  // normalized to (1, 3)
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 6.0);
  EXPECT_DOUBLE_EQ(Degree(g, 1), 6.0);
  EXPECT_DOUBLE_EQ(Degree(g, 2), 0.0);
  EXPECT_EQ(g.edges()[1].src, 1);
  EXPECT_EQ(g.edges()[1].dst, 3);
}

TEST(UndirectedGraphTest, CutWeightSymmetricUnderComplement) {
  UndirectedGraph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 3.0);
  g.AddEdge(0, 3, 4.0);
  const VertexSet s = MakeVertexSet(4, {0, 2});
  EXPECT_DOUBLE_EQ(g.CutWeight(s), 10.0);
  EXPECT_DOUBLE_EQ(g.CutWeight(ComplementSet(s)), g.CutWeight(s));
}

TEST(UndirectedGraphTest, DegreeSumIsTwiceTotalWeight) {
  UndirectedGraph g(5);
  g.AddEdge(0, 1, 1.5);
  g.AddEdge(2, 3, 2.5);
  g.AddEdge(0, 4, 3.0);
  double degree_sum = 0;
  for (int v = 0; v < 5; ++v) degree_sum += Degree(g, v);
  EXPECT_DOUBLE_EQ(degree_sum, 2 * g.TotalWeight());
}

TEST(UndirectedGraphTest, ParallelEdgesAccumulate) {
  UndirectedGraph g(2);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 1, 2.0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.CutWeight(MakeVertexSet(2, {0})), 3.0);
}

TEST(ConnectivityTest, StronglyConnectedCycle) {
  DirectedGraph g(4);
  for (int v = 0; v < 4; ++v) g.AddEdge(v, (v + 1) % 4, 1.0);
  EXPECT_TRUE(IsStronglyConnected(g));
}

TEST(ConnectivityTest, OneWayPathIsNotStronglyConnected) {
  DirectedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  EXPECT_FALSE(IsStronglyConnected(g));
}

TEST(ConnectivityTest, ZeroWeightEdgesDoNotConnect) {
  DirectedGraph g(2);
  g.AddEdge(0, 1, 0.0);
  g.AddEdge(1, 0, 1.0);
  EXPECT_FALSE(IsStronglyConnected(g));
}

TEST(ConnectivityTest, ComponentsAndCounts) {
  UndirectedGraph g(6);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(3, 4, 1.0);
  const std::vector<int> comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_EQ(CountComponents(g), 3);
  EXPECT_FALSE(IsConnected(g));
}

TEST(ConnectivityTest, SingleVertexIsConnected) {
  UndirectedGraph g(1);
  EXPECT_TRUE(IsConnected(g));
}

}  // namespace
}  // namespace dcs
