// The paper's resource bounds, asserted on runtime metrics.
//
// Every bound the paper states is a count of some resource; with the
// metrics registry those counts are observable, so this suite turns two of
// them into executable assertions:
//
//  * Theorem 1.1 / Lemma 3.2 — the for-each decoder recovers each sign bit
//    from EXACTLY four cut queries (the inclusion–exclusion probe
//    (A,B), (Ā,B), (A,B̄), (Ā,B̄)), regardless of the oracle behind them.
//  * Theorem 5.7 — the modified-search min-cut estimator spends
//    Õ(m/(ε²k)) local queries. The Õ's polylog is pinned down empirically
//    as log₂²(n) with constant 1 (measured constant ≈ 0.4 across the grid
//    below, so the budget has a >2× safety margin while keeping the
//    m/(ε²k) shape: doubling m at fixed n, ε, k must not double the
//    slack).
//
// All assertions diff registry snapshots, so the suite is robust to other
// tests (or static initializers) touching the registry. When the library
// is compiled with DCS_ENABLE_METRICS=OFF the counts do not exist; every
// test skips.

#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "localquery/mincut_estimator.h"
#include "lowerbound/cut_oracle.h"
#include "lowerbound/foreach_encoding.h"
#include "serve/cut_query_service.h"
#include "serve/decoder_batch.h"
#include "util/metrics.h"
#include "util/random.h"

namespace dcs {
namespace {

using metrics::MetricsSnapshot;
using metrics::Registry;

int64_t CounterDiff(const MetricsSnapshot& diff, const std::string& name) {
  const auto it = diff.counters.find(name);
  return it == diff.counters.end() ? 0 : it->second;
}

#if DCS_METRICS_ENABLED
constexpr bool kMetricsEnabled = true;
#else
constexpr bool kMetricsEnabled = false;
#endif

class MetricsBoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsEnabled) {
      GTEST_SKIP() << "library compiled with DCS_ENABLE_METRICS=OFF";
    }
  }
};

// Decodes `probes` bits and returns the metrics diff across the decode.
MetricsSnapshot DecodeBitsAndDiff(const ForEachLowerBoundParams& params,
                                  const CutOracle& oracle, int probes,
                                  Rng& rng, const std::vector<int8_t>& s,
                                  int* correct) {
  const ForEachDecoder decoder(params);
  const MetricsSnapshot before = Registry::Get().Snapshot();
  *correct = 0;
  for (int probe = 0; probe < probes; ++probe) {
    const int64_t q = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(params.total_bits())));
    if (decoder.DecodeBit(q, oracle) == s[static_cast<size_t>(q)]) {
      ++*correct;
    }
  }
  return Registry::Get().Snapshot().DiffSince(before);
}

TEST_F(MetricsBoundsTest, ForEachDecoderUsesExactlyFourQueriesPerBit) {
  ForEachLowerBoundParams params;
  params.inv_epsilon = 8;
  params.sqrt_beta = 2;
  params.num_layers = 3;
  Rng rng(2024);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  const CutOracle oracle = ExactCutOracle(encoding.graph);
  constexpr int kProbes = 32;
  int correct = 0;
  const MetricsSnapshot diff =
      DecodeBitsAndDiff(params, oracle, kProbes, rng, s, &correct);
  // Lemma 3.2: four session queries per decoded bit — not 5, not 4·m.
  EXPECT_EQ(CounterDiff(diff, "cutoracle.session.query"), 4 * kProbes);
  EXPECT_EQ(CounterDiff(diff, "cutoracle.session.opened"), kProbes);
  EXPECT_EQ(CounterDiff(diff, "foreach.bit.decoded"), kProbes);
  // The decoder goes through sessions only; one-shot queries stay at zero.
  EXPECT_EQ(CounterDiff(diff, "cutoracle.query.served"), 0);
  // Exact oracle at this ε: every probe decodes correctly.
  EXPECT_EQ(correct, kProbes);
}

TEST_F(MetricsBoundsTest, FourQueryBoundHoldsForNoisyAndRescanOracles) {
  ForEachLowerBoundParams params;
  params.inv_epsilon = 8;
  params.sqrt_beta = 2;
  params.num_layers = 2;
  Rng rng(77);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  constexpr int kProbes = 16;

  // Worst-case (1±ε') noise: query count is oblivious to oracle accuracy.
  Rng noise_rng(5);
  const CutOracle noisy =
      MaximalNoiseCutOracle(encoding.graph, 0.01, noise_rng);
  int correct = 0;
  MetricsSnapshot diff =
      DecodeBitsAndDiff(params, noisy, kProbes, rng, s, &correct);
  EXPECT_EQ(CounterDiff(diff, "cutoracle.session.query"), 4 * kProbes);
  EXPECT_EQ(CounterDiff(diff, "cutoracle.session.incremental"), kProbes);

  // A bare lambda oracle has no incremental sessions; the fallback rescan
  // session must still serve exactly the same four queries per bit.
  const DirectedGraph& graph = encoding.graph;
  const CutOracle rescan =
      [&graph](const VertexSet& side) { return graph.CutWeight(side); };
  diff = DecodeBitsAndDiff(params, rescan, kProbes, rng, s, &correct);
  EXPECT_EQ(CounterDiff(diff, "cutoracle.session.query"), 4 * kProbes);
  EXPECT_EQ(CounterDiff(diff, "cutoracle.session.rescan"), kProbes);
  EXPECT_EQ(CounterDiff(diff, "cutoracle.query.served"), 0);
}

TEST_F(MetricsBoundsTest, ServedDecodeKeepsFourLogicalQueriesPerBit) {
  // Lemma 3.2 through the serving layer: a batched decode still spends
  // exactly four *logical* queries per bit, and a warm cache changes only
  // how many of them reach the backend — never the logical count and never
  // the decoded bits.
  ForEachLowerBoundParams params;
  params.inv_epsilon = 8;
  params.sqrt_beta = 2;
  params.num_layers = 2;
  Rng rng(4242);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  const ForEachDecoder decoder(params);

  CutQueryService service;
  const auto object = service.RegisterGraph(encoding.graph);

  // Distinct bit positions, so no two probes share a cut side within a
  // pass and the cold pass is all misses.
  constexpr int kProbes = 32;
  std::vector<int64_t> qs;
  for (int64_t q = 0; q < kProbes; ++q) qs.push_back(q);

  const MetricsSnapshot before_cold = Registry::Get().Snapshot();
  const std::vector<int8_t> cold = DecodeForEachBits(decoder, qs, service,
                                                     object);
  const MetricsSnapshot cold_diff =
      Registry::Get().Snapshot().DiffSince(before_cold);
  EXPECT_EQ(CounterDiff(cold_diff, "serve.query.logical"), 4 * kProbes);
  EXPECT_EQ(CounterDiff(cold_diff, "serve.cache.misses"), 4 * kProbes);
  EXPECT_EQ(CounterDiff(cold_diff, "serve.cache.hits"), 0);
  EXPECT_EQ(CounterDiff(cold_diff, "foreach.bit.decoded"), kProbes);

  const MetricsSnapshot before_warm = Registry::Get().Snapshot();
  const std::vector<int8_t> warm = DecodeForEachBits(decoder, qs, service,
                                                     object);
  const MetricsSnapshot warm_diff =
      Registry::Get().Snapshot().DiffSince(before_warm);
  EXPECT_EQ(CounterDiff(warm_diff, "serve.query.logical"), 4 * kProbes);
  EXPECT_EQ(CounterDiff(warm_diff, "serve.cache.hits"), 4 * kProbes);
  EXPECT_EQ(CounterDiff(warm_diff, "serve.cache.misses"), 0);

  EXPECT_EQ(cold, warm);
  for (int i = 0; i < kProbes; ++i) {
    EXPECT_EQ(cold[static_cast<size_t>(i)], s[static_cast<size_t>(i)])
        << "bit " << i;
  }
}

TEST_F(MetricsBoundsTest, MinCutEstimatorStaysWithinTheorem57Budget) {
  // Dumbbell instances: two K_cs cliques joined by k bridges, so the min
  // cut is exactly k and m ≈ cs². The estimator's query count must scale
  // as Õ(m/(ε²k)) (Theorem 5.7, modified constant-accuracy search).
  for (const int clique_size : {16, 24, 40}) {
    for (const int bridges : {2, 4, 8}) {
      for (const double epsilon : {0.5, 0.25}) {
        const UndirectedGraph graph = DumbbellGraph(clique_size, bridges);
        const double m = static_cast<double>(graph.num_edges());
        const double n = static_cast<double>(graph.num_vertices());
        Rng rng(1234 + static_cast<uint64_t>(clique_size + bridges));
        const MetricsSnapshot before = Registry::Get().Snapshot();
        const LocalQueryMinCutResult result = EstimateMinCutLocalQueries(
            graph, epsilon, SearchMode::kModifiedConstantSearch, rng);
        const MetricsSnapshot diff =
            Registry::Get().Snapshot().DiffSince(before);

        // The estimate itself is (1±ε)-accurate on the known min cut k.
        EXPECT_GE(result.estimate, (1 - epsilon) * bridges);
        EXPECT_LE(result.estimate, (1 + epsilon) * bridges);

        // Õ(m/(ε²k)) with the polylog pinned as log₂²(n), constant 1
        // (header comment; measured constant ≈ 0.4).
        const double log_n = std::log2(n);
        const double budget =
            m * log_n * log_n / (epsilon * epsilon * bridges);
        EXPECT_LE(static_cast<double>(result.counts.total()), budget)
            << "clique_size=" << clique_size << " bridges=" << bridges
            << " epsilon=" << epsilon << " m=" << m;

        // The registry counted exactly what the oracle counted.
        EXPECT_EQ(CounterDiff(diff, "localquery.degree.issued"),
                  result.counts.degree);
        EXPECT_EQ(CounterDiff(diff, "localquery.neighbor.issued"),
                  result.counts.neighbor);
        EXPECT_EQ(CounterDiff(diff, "localquery.adjacency.issued"),
                  result.counts.adjacency);
      }
    }
  }
}

TEST_F(MetricsBoundsTest, QueryBudgetScalesDownWithMinCut) {
  // The 1/k dependence of Theorem 5.7, observed directly: at fixed n and
  // ε, quadrupling the min cut must not increase the query count.
  const double epsilon = 0.5;
  int64_t queries_small_cut = 0;
  int64_t queries_large_cut = 0;
  for (const int bridges : {2, 8}) {
    const UndirectedGraph graph = DumbbellGraph(32, bridges);
    Rng rng(99);
    const LocalQueryMinCutResult result = EstimateMinCutLocalQueries(
        graph, epsilon, SearchMode::kModifiedConstantSearch, rng);
    (bridges == 2 ? queries_small_cut : queries_large_cut) =
        result.counts.total();
  }
  EXPECT_LE(queries_large_cut, queries_small_cut);
}

}  // namespace
}  // namespace dcs
