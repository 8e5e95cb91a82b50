// Cross-module integration: the lower-bound decoders running against the
// library's *actual* sketches (not just synthetic oracles), and the full
// Lemma 5.6 reduction from 2-SUM to local-query min-cut with communication
// accounting.

#include <cmath>

#include "comm/two_sum.h"
#include "graph/balance.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "localquery/mincut_estimator.h"
#include "localquery/oracle.h"
#include "lowerbound/foreach_encoding.h"
#include "lowerbound/forall_encoding.h"
#include "lowerbound/twosum_graph.h"
#include "sketch/backend_registry.h"
#include "sketch/directed_sketches.h"
#include "sketch/exact_sketch.h"
#include "util/random.h"

namespace dcs {
namespace {

TEST(Integration, ForEachDecoderAgainstExactDirectedSketch) {
  // The ExactDirectedSketch is a legitimate (error-0) cut sketch; the
  // Section 3 decoder must read every bit back through its interface.
  ForEachLowerBoundParams params;
  params.inv_epsilon = 8;
  params.sqrt_beta = 1;
  params.num_layers = 2;
  Rng rng(1);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  ASSERT_EQ(encoding.failed_clusters, 0);
  const ExactDirectedSketch sketch{DirectedGraph(encoding.graph)};
  const ForEachDecoder decoder(params);
  const CutOracle oracle = SketchCutOracle(sketch);
  for (int64_t q = 0; q < params.total_bits(); ++q) {
    EXPECT_EQ(decoder.DecodeBit(q, oracle), s[static_cast<size_t>(q)]);
  }
  // The information pigeonhole: an exact sketch of this graph costs at
  // least as many bits as the string it stores.
  EXPECT_GE(sketch.SizeInBits(), params.total_bits());
}

TEST(Integration, ForEachDecoderAgainstSampledDirectedSketch) {
  // A DirectedForEachSketch whose effective error is far below the decoding
  // threshold (dense sampling) must also decode correctly; this exercises
  // encoder → sketch → decoder end to end.
  ForEachLowerBoundParams params;
  params.inv_epsilon = 4;
  params.sqrt_beta = 1;
  params.num_layers = 2;
  Rng rng(2);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  ASSERT_EQ(encoding.failed_clusters, 0);
  const double beta =
      PerEdgeBalanceCertificate(encoding.graph).value_or(params.beta());
  Rng sketch_rng(3);
  // Tiny epsilon → the sampler keeps every edge → exact answers.
  const DirectedForEachSketch sketch(encoding.graph, 0.01, beta, sketch_rng,
                                     /*oversample_c=*/50.0);
  const ForEachDecoder decoder(params);
  const CutOracle oracle = SketchCutOracle(sketch);
  int correct = 0;
  for (int64_t q = 0; q < params.total_bits(); ++q) {
    if (decoder.DecodeBit(q, oracle) == s[static_cast<size_t>(q)]) {
      ++correct;
    }
  }
  EXPECT_EQ(correct, params.total_bits());
}

TEST(Integration, ForAllDecoderAgainstDirectedForAllSketch) {
  ForAllLowerBoundParams params;
  params.inv_epsilon_sq = 16;
  params.beta = 1;
  params.num_layers = 2;
  Rng rng(4);
  int correct = 0;
  const int trials = 25;
  for (int trial = 0; trial < trials; ++trial) {
    GapHammingParams gh;
    gh.num_strings = static_cast<int>(params.total_strings());
    gh.string_length = params.inv_epsilon_sq;
    gh.gap_c = params.gap_c;
    const GapHammingInstance instance = SampleGapHammingInstance(gh, rng);
    const DirectedGraph graph = ForAllEncoder(params).Encode(instance.s);
    Rng sketch_rng(trial + 100);
    const DirectedForAllSketch sketch(graph, 0.01, 2.0, sketch_rng, 50.0);
    const ForAllDecoder decoder(params);
    const bool decided = decoder.DecideFar(
        instance.index, instance.t, SketchCutOracle(sketch),
        ForAllDecoder::SubsetSelection::kGreedy);
    if (decided == instance.is_far) ++correct;
  }
  EXPECT_GE(correct, (trials * 4) / 5);
}

TEST(Integration, TwoSumToMinCutReductionEndToEnd) {
  // Lemma 5.6 / Theorem 1.3, operationally: solve a 2-SUM instance by
  // running the local-query min-cut estimator on G_{x,y} and converting the
  // estimate back; count the communication the queries would cost.
  TwoSumParams params;
  params.num_pairs = 4;
  params.string_length = 100;  // N = 400, ℓ = 20
  params.alpha = 1;
  params.intersect_fraction = 0.5;
  Rng rng(5);
  const TwoSumInstance instance = SampleTwoSumInstance(params, rng);
  const std::vector<uint8_t> x = ConcatenateStrings(instance.x);
  const std::vector<uint8_t> y = ConcatenateStrings(instance.y);
  const int total_int = IntersectionCount(x, y);
  ASSERT_LE(3 * total_int, 20);  // Lemma 5.5 hypothesis
  const UndirectedGraph g = BuildTwoSumGraph(x, y);
  Rng est_rng(6);
  const LocalQueryMinCutResult result = EstimateMinCutLocalQueries(
      g, 0.2, SearchMode::kModifiedConstantSearch, est_rng);
  // MINCUT = 2·r·α with r intersecting pairs; recover Σ DISJ.
  const double recovered_disjoint =
      params.num_pairs - result.estimate / (2.0 * params.alpha);
  EXPECT_NEAR(recovered_disjoint, instance.disjoint_count, 1.0);
  // The queries translate to a real communication budget (2 bits each).
  EXPECT_GT(result.communication_bits, 0);
  EXPECT_EQ(result.communication_bits,
            2 * (result.counts.neighbor + result.counts.adjacency));
}

TEST(Integration, ForAllDecoderAgainstDirectedImportanceSampler) {
  // Third sketch family through the Section 4 decoder: the direct directed
  // sparsifier is also a modular estimator, so the greedy Bob works.
  ForAllLowerBoundParams params;
  params.inv_epsilon_sq = 16;
  params.beta = 1;
  params.num_layers = 2;
  Rng rng(40);
  int correct = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    GapHammingParams gh;
    gh.num_strings = static_cast<int>(params.total_strings());
    gh.string_length = params.inv_epsilon_sq;
    const GapHammingInstance instance = SampleGapHammingInstance(gh, rng);
    const DirectedGraph graph = ForAllEncoder(params).Encode(instance.s);
    Rng sketch_rng(trial + 900);
    const DirectedImportanceSamplerSketch sketch(graph, 0.05, 2.0,
                                                 sketch_rng, 50.0);
    const ForAllDecoder decoder(params);
    if (decoder.DecideFar(instance.index, instance.t,
                          SketchCutOracle(sketch),
                          ForAllDecoder::SubsetSelection::kGreedy) ==
        instance.is_far) {
      ++correct;
    }
  }
  EXPECT_GE(correct, (trials * 3) / 4);
}

TEST(Integration, EulerianBackendComposesWithForEachBackend) {
  // Both registry backends on one Eulerian graph: the cycle sample stays
  // exactly Eulerian, and the for-each sketch's imbalance half is
  // identically zero, so at dense sampling its estimate reduces to the
  // symmetric half and reproduces the graph's cuts.
  Rng gen_rng(41);
  const DirectedGraph g = RandomEulerianDigraph(14, 50, 6, gen_rng);
  BackendOptions cycle_options;
  cycle_options.epsilon = 0.5;
  cycle_options.oversample_c = 0.5;
  cycle_options.seed = 42;
  const auto cycles = BuildBackendSketch("eulerian", g, cycle_options);
  ASSERT_TRUE(cycles.ok()) << cycles.status().message();
  BackendOptions dense_options;
  dense_options.epsilon = 0.01;
  dense_options.oversample_c = 50.0;
  dense_options.seed = 43;
  const auto foreach_sketch = BuildBackendSketch("foreach", g, dense_options);
  ASSERT_TRUE(foreach_sketch.ok()) << foreach_sketch.status().message();
  Rng cut_rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    VertexSet side(14);
    for (auto& b : side) b = static_cast<uint8_t>(cut_rng.Next() & 1);
    if (!IsProperCutSide(side)) continue;
    // Dense sampling → the sketch reproduces the graph's cuts, which are
    // symmetric (Eulerian) in both directions.
    EXPECT_NEAR((*foreach_sketch)->EstimateCut(side), g.CutWeight(side),
                1e-6);
    EXPECT_NEAR((*cycles)->EstimateCut(side),
                (*cycles)->EstimateCut(ComplementSet(side)), 1e-9);
  }
}

TEST(Integration, ReversalPreservesLowerBoundDecoding) {
  // Reversing the construction graph swaps forward/backward roles; the
  // decoder on the reversed graph with complemented cut sides recovers the
  // same bits — a symmetry check of the whole Section 3 pipeline.
  ForEachLowerBoundParams params;
  params.inv_epsilon = 4;
  params.sqrt_beta = 1;
  params.num_layers = 2;
  Rng rng(45);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  const DirectedGraph reversed = encoding.graph.Reversed();
  const ForEachDecoder decoder(params);
  // Oracle over the reversed graph queried on complemented sides equals
  // the original forward cut: w_rev(S̄, S) = w(S, S̄).
  const CutOracle oracle = [&reversed](const VertexSet& side) {
    return reversed.CutWeight(ComplementSet(side));
  };
  for (int64_t q = 0; q < params.total_bits(); q += 3) {
    EXPECT_EQ(decoder.DecodeBit(q, oracle), s[static_cast<size_t>(q)]);
  }
}

TEST(Integration, ForEachInfoFormulaMatchesConstruction) {
  // The number of decodable bits tracks the Ω(n√β/ε) formula across a
  // parameter sweep (up to the (1−ε)² factor from (1/ε−1)² vs 1/ε²).
  for (int inv_eps : {4, 8}) {
    for (int sqrt_beta : {1, 2, 3}) {
      ForEachLowerBoundParams params;
      params.inv_epsilon = inv_eps;
      params.sqrt_beta = sqrt_beta;
      params.num_layers = 2;
      const double formula_half = params.info_formula() / 2;  // (ℓ−1)/ℓ
      const double ratio = static_cast<double>(params.total_bits()) /
                           formula_half;
      const double shrink = 1.0 - 1.0 / inv_eps;
      EXPECT_NEAR(ratio, shrink * shrink, 1e-9)
          << inv_eps << "," << sqrt_beta;
    }
  }
}

}  // namespace
}  // namespace dcs
