// Section 5.2 (Lemma 5.5, Figures 2–6): the G_{x,y} construction.
// Verifies the worked Figure 2 example, degree regularity, the witness cut,
// the MINCUT = 2·INT identity across random instances, and the
// 2γ-edge-disjoint-path cases of the connectivity proof.

#include "lowerbound/twosum_graph.h"

#include "comm/two_sum.h"
#include "degrees.h"
#include "graph/connectivity.h"
#include "gtest/gtest.h"
#include "mincut/dinic.h"
#include "mincut/stoer_wagner.h"
#include "util/random.h"

namespace dcs {
namespace {

TEST(TwoSumGraphTest, PerfectSquareRoot) {
  EXPECT_EQ(PerfectSquareRoot(1), 1);
  EXPECT_EQ(PerfectSquareRoot(9), 3);
  EXPECT_EQ(PerfectSquareRoot(144), 12);
  EXPECT_DEATH(PerfectSquareRoot(10), "CHECK");
}

TEST(TwoSumGraphTest, LayoutBlocks) {
  const TwoSumGraphLayout layout(3);
  EXPECT_EQ(layout.num_vertices(), 12);
  EXPECT_EQ(layout.a(0), 0);
  EXPECT_EQ(layout.a_prime(0), 3);
  EXPECT_EQ(layout.b(0), 6);
  EXPECT_EQ(layout.b_prime(2), 11);
  EXPECT_TRUE(layout.InA(2));
  EXPECT_TRUE(layout.InAPrime(4));
  EXPECT_TRUE(layout.InB(7));
  EXPECT_TRUE(layout.InBPrime(9));
}

TEST(TwoSumGraphTest, Figure2ExampleStructure) {
  // x = 000000100, y = 100010100: one intersection at x_{3,1} (0-based
  // (2,0)). MINCUT must be 2·INT = 2.
  const TwoSumExample example = Figure2Example();
  EXPECT_EQ(IntersectionCount(example.x, example.y), 1);
  const UndirectedGraph g = BuildTwoSumGraph(example.x, example.y);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 18);  // 2N = 18
  EXPECT_TRUE(IsConnected(g));
  const TwoSumGraphLayout layout(3);
  // The red crossing edges: (a_3, b'_1) and (b_3, a'_1).
  bool has_a3_bp1 = false;
  bool has_b3_ap1 = false;
  for (const Edge& e : g.edges()) {
    if ((e.src == layout.a(2) && e.dst == layout.b_prime(0)) ||
        (e.dst == layout.a(2) && e.src == layout.b_prime(0))) {
      has_a3_bp1 = true;
    }
    if ((e.src == layout.b(2) && e.dst == layout.a_prime(0)) ||
        (e.dst == layout.b(2) && e.src == layout.a_prime(0))) {
      has_b3_ap1 = true;
    }
  }
  EXPECT_TRUE(has_a3_bp1);
  EXPECT_TRUE(has_b3_ap1);
  EXPECT_DOUBLE_EQ(StoerWagnerMinCut(g).value, 2.0);
}

TEST(TwoSumGraphTest, EveryVertexHasDegreeEll) {
  Rng rng(1);
  const int ell = 5;
  const std::vector<uint8_t> x = rng.RandomBinaryString(ell * ell);
  const std::vector<uint8_t> y = rng.RandomBinaryString(ell * ell);
  const UndirectedGraph g = BuildTwoSumGraph(x, y);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(Degree(g, v), static_cast<double>(ell)) << "vertex " << v;
  }
}

TEST(TwoSumGraphTest, WitnessCutValueIsTwiceIntersection) {
  Rng rng(2);
  const int ell = 6;
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<uint8_t> x = rng.RandomBinaryString(ell * ell);
    const std::vector<uint8_t> y = rng.RandomBinaryString(ell * ell);
    const UndirectedGraph g = BuildTwoSumGraph(x, y);
    const TwoSumGraphLayout layout(ell);
    EXPECT_DOUBLE_EQ(g.CutWeight(layout.WitnessSide()),
                     2.0 * IntersectionCount(x, y));
  }
}

// Lemma 5.5: MINCUT(G_{x,y}) = 2·INT(x,y) when √N ≥ 3·INT(x,y).
TEST(TwoSumGraphTest, Lemma55OnRandomSparseIntersections) {
  Rng rng(3);
  // N = 49 (ℓ = 7), so INT up to 2 satisfies the √N ≥ 3·INT hypothesis.
  for (int target_int : {1, 2}) {
    for (int trial = 0; trial < 5; ++trial) {
      // Build strings with exactly target_int intersections.
      std::vector<uint8_t> x(49, 0), y(49, 0);
      const std::vector<int> shared = rng.RandomSubset(49, target_int);
      for (int pos : shared) {
        x[static_cast<size_t>(pos)] = 1;
        y[static_cast<size_t>(pos)] = 1;
      }
      // Extra non-intersecting ones.
      for (int i = 0; i < 49; ++i) {
        if (x[static_cast<size_t>(i)]) continue;
        if (rng.Bernoulli(0.3)) x[static_cast<size_t>(i)] = 1;
        // y stays 0 there to keep INT exact... unless x is 0.
      }
      for (int i = 0; i < 49; ++i) {
        if (!x[static_cast<size_t>(i)] && rng.Bernoulli(0.3)) {
          y[static_cast<size_t>(i)] = 1;
        }
      }
      ASSERT_EQ(IntersectionCount(x, y), target_int);
      const UndirectedGraph g = BuildTwoSumGraph(x, y);
      EXPECT_DOUBLE_EQ(StoerWagnerMinCut(g).value, 2.0 * target_int);
    }
  }
}

TEST(TwoSumGraphTest, ZeroIntersectionDisconnects) {
  // With INT = 0 there are no crossing edges: A∪A' and B∪B' are separate
  // components and the min cut is 0 — DISJ is visible in the cut value.
  std::vector<uint8_t> x(16, 0), y(16, 0);
  for (int i = 0; i < 8; ++i) x[static_cast<size_t>(i)] = 1;
  for (int i = 8; i < 16; ++i) y[static_cast<size_t>(i)] = 1;
  ASSERT_EQ(IntersectionCount(x, y), 0);
  const UndirectedGraph g = BuildTwoSumGraph(x, y);
  EXPECT_FALSE(IsConnected(g));
  EXPECT_DOUBLE_EQ(StoerWagnerMinCut(g).value, 0.0);
}

// The connectivity cases of Lemma 5.5 (Figures 3–6): with γ = INT(x,y) and
// √N ≥ 3γ, every vertex pair has ≥ 2γ edge-disjoint paths.
TEST(TwoSumGraphTest, EdgeDisjointPathCases) {
  const int ell = 7;
  std::vector<uint8_t> x(49, 0), y(49, 0);
  // γ = 2 intersections at (0,0) and (3,4).
  x[0] = y[0] = 1;
  x[3 * 7 + 4] = y[3 * 7 + 4] = 1;
  const int gamma = IntersectionCount(x, y);
  ASSERT_EQ(gamma, 2);
  const UndirectedGraph g = BuildTwoSumGraph(x, y);
  const TwoSumGraphLayout layout(ell);
  // Case 1: u, v ∈ A.  Case 2: u ∈ A, v ∈ A'.
  // Case 3: u ∈ A, v ∈ B'. Case 4: u ∈ A, v ∈ B.
  const std::vector<std::pair<VertexId, VertexId>> pairs = {
      {layout.a(1), layout.a(5)},
      {layout.a(1), layout.a_prime(2)},
      {layout.a(1), layout.b_prime(3)},
      {layout.a(1), layout.b(6)},
  };
  for (const auto& [u, v] : pairs) {
    EXPECT_GE(CountEdgeDisjointPaths(g, u, v), 2 * gamma)
        << "pair " << u << "," << v;
  }
}

TEST(TwoSumGraphTest, MinCutScalesWithConcatenatedTwoSumInstance) {
  // End of the Lemma 5.6 pipeline: concatenated 2-SUM strings give
  // MINCUT = 2·r·α where r = #intersecting pairs.
  TwoSumParams params;
  params.num_pairs = 4;
  params.string_length = 64;  // total N = 256, ℓ = 16
  params.alpha = 2;
  params.intersect_fraction = 0.5;
  Rng rng(6);
  const TwoSumInstance instance = SampleTwoSumInstance(params, rng);
  const std::vector<uint8_t> x = ConcatenateStrings(instance.x);
  const std::vector<uint8_t> y = ConcatenateStrings(instance.y);
  const int total_int = IntersectionCount(x, y);
  EXPECT_EQ(total_int,
            (params.num_pairs - instance.disjoint_count) * params.alpha);
  // √256 = 16 ≥ 3·INT requires INT ≤ 5: with 2 intersecting pairs × α=2,
  // INT = 4 ✓.
  ASSERT_LE(3 * total_int, 16);
  const UndirectedGraph g = BuildTwoSumGraph(x, y);
  EXPECT_DOUBLE_EQ(StoerWagnerMinCut(g).value, 2.0 * total_int);
}

}  // namespace
}  // namespace dcs
