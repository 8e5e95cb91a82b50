// The local query model: oracle semantics and accounting, VERIFY-GUESS
// accept/reject behavior (Lemma 5.8), and the full min-cut estimators
// (original [BGMP21] vs the paper's Theorem 5.7 modification).

#include <cmath>
#include <set>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "localquery/mincut_estimator.h"
#include "localquery/oracle.h"
#include "localquery/verify_guess.h"
#include "lowerbound/twosum_graph.h"
#include "mincut/stoer_wagner.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {
namespace {

TEST(GraphOracleTest, DegreeAndNeighborSemantics) {
  UndirectedGraph g(4);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.0);  // parallel edge
  GraphOracle oracle(g);
  EXPECT_EQ(oracle.Degree(0), 3);
  EXPECT_EQ(oracle.Degree(3), 0);
  // Neighbors are sorted: 1, 2, 2.
  EXPECT_EQ(oracle.Neighbor(0, 0), 1);
  EXPECT_EQ(oracle.Neighbor(0, 1), 2);
  EXPECT_EQ(oracle.Neighbor(0, 2), 2);
  EXPECT_EQ(oracle.Neighbor(0, 3), std::nullopt);
}

TEST(GraphOracleTest, AdjacencyQueries) {
  UndirectedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  GraphOracle oracle(g);
  EXPECT_TRUE(oracle.Adjacent(0, 1));
  EXPECT_TRUE(oracle.Adjacent(1, 0));
  EXPECT_FALSE(oracle.Adjacent(0, 2));
}

TEST(GraphOracleTest, QueryAccounting) {
  UndirectedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  GraphOracle oracle(g);
  oracle.Degree(0);
  oracle.Degree(1);
  oracle.Neighbor(0, 0);
  oracle.Adjacent(0, 2);
  EXPECT_EQ(oracle.counts().degree, 2);
  EXPECT_EQ(oracle.counts().neighbor, 1);
  EXPECT_EQ(oracle.counts().adjacency, 1);
  EXPECT_EQ(oracle.counts().total(), 4);
  // Lemma 5.6 accounting: 2 bits per neighbor/adjacency query.
  EXPECT_EQ(oracle.CommunicationBits(), 4);
  oracle.ResetCounts();
  EXPECT_EQ(oracle.counts().total(), 0);
}

TEST(GraphOracleTest, SlotsEnumerateTheExactNeighborMultiset) {
  Rng rng(77);
  const UndirectedGraph g = UnionOfRandomMatchings(12, 4, rng);
  GraphOracle oracle(g);
  for (int u = 0; u < 12; ++u) {
    const int64_t degree = oracle.Degree(u);
    EXPECT_EQ(degree, 4);
    std::multiset<int> from_slots;
    for (int64_t slot = 0; slot < degree; ++slot) {
      const auto neighbor = oracle.Neighbor(u, slot);
      ASSERT_TRUE(neighbor.has_value());
      from_slots.insert(*neighbor);
    }
    std::multiset<int> truth;
    for (const Edge& e : g.edges()) {
      if (e.src == u) truth.insert(e.dst);
      if (e.dst == u) truth.insert(e.src);
    }
    EXPECT_EQ(from_slots, truth) << "vertex " << u;
  }
}

TEST(GraphOracleDeathTest, RejectsWeightedGraphs) {
  UndirectedGraph g(2);
  g.AddEdge(0, 1, 2.0);
  EXPECT_DEATH(GraphOracle oracle(g), "CHECK");
}

TEST(VerifyGuessTest, AcceptsGuessBelowMinCut) {
  // Dumbbell with min cut 4; guess t = 2 ≤ k must accept with an accurate
  // estimate.
  const UndirectedGraph g = DumbbellGraph(12, 4);
  GraphOracle oracle(g);
  Rng rng(1);
  const VerifyGuessResult result =
      VerifyGuess(oracle, 2.0, 0.3, rng, 4.0).value();
  EXPECT_TRUE(result.accepted);
  EXPECT_NEAR(result.estimate, 4.0, 1.5);
}

TEST(VerifyGuessTest, RejectsHugeGuess) {
  const UndirectedGraph g = DumbbellGraph(12, 2);
  GraphOracle oracle(g);
  Rng rng(2);
  // t = 600 ≫ k = 2: sampled graph is far too sparse to show a cut of 600.
  const VerifyGuessResult result = VerifyGuess(oracle, 600.0, 0.3, rng).value();
  EXPECT_FALSE(result.accepted);
}

TEST(VerifyGuessTest, SaturatedSamplingIsExact) {
  // Tiny guess forces p = 1: the estimate equals the true min cut.
  const UndirectedGraph g = DumbbellGraph(10, 3);
  GraphOracle oracle(g);
  Rng rng(3);
  const VerifyGuessResult result =
      VerifyGuess(oracle, 1.0, 0.2, rng, 10.0).value();
  EXPECT_TRUE(result.accepted);
  EXPECT_DOUBLE_EQ(result.sample_probability, 1.0);
  EXPECT_NEAR(result.estimate, 3.0, 1e-9);
}

TEST(VerifyGuessTest, QueriesScaleInverselyWithGuess) {
  const UndirectedGraph g = CompleteGraph(64, 1.0);
  Rng rng(4);
  GraphOracle oracle_small(g);
  ASSERT_TRUE(VerifyGuess(oracle_small, 2.0, 0.5, rng).ok());
  GraphOracle oracle_large(g);
  ASSERT_TRUE(VerifyGuess(oracle_large, 512.0, 0.5, rng).ok());
  // Neighbor queries shrink roughly in proportion (degree queries are n in
  // both cases).
  EXPECT_GT(oracle_small.counts().neighbor,
            3 * oracle_large.counts().neighbor);
}

// An inconsistent oracle: every vertex reports degree 2, yet no neighbor
// slot holds a vertex.
class BottomNeighborOracle final : public LocalQueryOracle {
 public:
  int num_vertices() const override { return 4; }
  int64_t Degree(VertexId) override { return 2; }
  std::optional<VertexId> Neighbor(VertexId, int64_t) override {
    TallyNeighborQuery();
    return std::nullopt;
  }
  bool Adjacent(VertexId, VertexId) override { return false; }
};

TEST(VerifyGuessTest, InconsistentOracleIsFailedPrecondition) {
  BottomNeighborOracle oracle;
  Rng rng(11);
  // oversample_c = 1000 saturates p at 1, so every slot is sampled.
  const auto result = VerifyGuess(oracle, 2.0, 0.5, rng, 1000.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.counts().neighbor, 1);
}

TEST(MinCutEstimatorTest, InconsistentOracleIsFailedPrecondition) {
  BottomNeighborOracle oracle;
  Rng rng(12);
  MinCutEstimatorOptions options;
  options.oversample_c = 1000.0;
  const auto result = EstimateMinCutLocalQueries(
      oracle, 0.5, SearchMode::kModifiedConstantSearch, rng, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

class MinCutEstimatorTest : public ::testing::TestWithParam<SearchMode> {};

TEST_P(MinCutEstimatorTest, AccurateOnDumbbell) {
  const UndirectedGraph g = DumbbellGraph(16, 5);
  Rng rng(5);
  const LocalQueryMinCutResult result =
      EstimateMinCutLocalQueries(g, 0.25, GetParam(), rng);
  EXPECT_NEAR(result.estimate, 5.0, 2.0);
  EXPECT_GE(result.verify_guess_calls, 2);
}

TEST_P(MinCutEstimatorTest, AccurateOnRegularMultigraph) {
  Rng gen_rng(6);
  const UndirectedGraph g = UnionOfRandomMatchings(40, 8, gen_rng);
  const double exact = StoerWagnerMinCut(g).value;
  Rng rng(7);
  const LocalQueryMinCutResult result =
      EstimateMinCutLocalQueries(g, 0.3, GetParam(), rng);
  EXPECT_NEAR(result.estimate, exact, 0.45 * exact + 1);
}

TEST_P(MinCutEstimatorTest, CommunicationBitsTrackQueries) {
  const UndirectedGraph g = DumbbellGraph(10, 3);
  Rng rng(8);
  const LocalQueryMinCutResult result =
      EstimateMinCutLocalQueries(g, 0.3, GetParam(), rng);
  EXPECT_EQ(result.communication_bits,
            2 * (result.counts.neighbor + result.counts.adjacency));
}

INSTANTIATE_TEST_SUITE_P(BothModes, MinCutEstimatorTest,
                         ::testing::Values(
                             SearchMode::kOriginalEpsilonSearch,
                             SearchMode::kModifiedConstantSearch));

TEST(MinCutEstimatorTest, ModifiedSearchUsesFewerQueriesAtSmallEpsilon) {
  // Theorem 5.7's point: at small ε the original search pays 1/ε² in every
  // search call and 1/ε⁴-grade work in the final call; the modified search
  // pays 1/ε² only once.
  // Needs the unsaturated sampling regime (ε²k ≫ log n): a
  // high-multiplicity regular multigraph.
  Rng gen_rng(9);
  const UndirectedGraph g = UnionOfRandomMatchings(64, 4096, gen_rng);
  const double epsilon = 0.3;
  int64_t original_queries = 0;
  int64_t modified_queries = 0;
  for (uint64_t seed = 0; seed < 2; ++seed) {
    Rng rng1(seed);
    original_queries += EstimateMinCutLocalQueries(
                            g, epsilon, SearchMode::kOriginalEpsilonSearch,
                            rng1)
                            .counts.total();
    Rng rng2(seed);
    modified_queries += EstimateMinCutLocalQueries(
                            g, epsilon, SearchMode::kModifiedConstantSearch,
                            rng2)
                            .counts.total();
  }
  EXPECT_LT(modified_queries, original_queries);
}

TEST(MinCutEstimatorTest, WorksOnTwoSumHardInstances) {
  // Run the upper-bound algorithm on the lower-bound instances: the
  // estimate must still match 2·INT(x, y).
  std::vector<uint8_t> x(144, 0), y(144, 0);
  // 3 intersections (√144 = 12 ≥ 9 ✓).
  for (int pos : {0, 50, 100}) {
    x[static_cast<size_t>(pos)] = 1;
    y[static_cast<size_t>(pos)] = 1;
  }
  const UndirectedGraph g = BuildTwoSumGraph(x, y);
  Rng rng(10);
  const LocalQueryMinCutResult result = EstimateMinCutLocalQueries(
      g, 0.2, SearchMode::kModifiedConstantSearch, rng);
  EXPECT_NEAR(result.estimate, 6.0, 2.0);
}

}  // namespace
}  // namespace dcs
