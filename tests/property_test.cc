// Property-based sweeps (parameterized across sizes/densities/seeds) of the
// library's core invariants:
//   * cut identities (degree/handshake, symmetrization, imbalance linearity)
//   * agreement of independent min-cut algorithms
//   * sampling unbiasedness of the sketches
//   * strength bounds of the NI decomposition
//   * balance certificates vs exact balance

#include <cmath>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "degrees.h"
#include "graph/balance.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/zoo.h"
#include "gtest/gtest.h"
#include "mincut/dinic.h"
#include "mincut/directed_mincut.h"
#include "mincut/gomory_hu.h"
#include "mincut/karger.h"
#include "mincut/nagamochi_ibaraki.h"
#include "mincut/stoer_wagner.h"
#include "sketch/backend_registry.h"
#include "sketch/directed_sketches.h"
#include "sketch/eulerian_sparsifier.h"
#include "sketch/serialization.h"
#include "stream/agm_sketch.h"
#include "sketch/sampled_sketches.h"
#include "util/bitio.h"
#include "util/metrics.h"
#include "util/random.h"

namespace dcs {
namespace {

using SizeDensitySeed = std::tuple<int, double, uint64_t>;

class UndirectedPropertyTest
    : public ::testing::TestWithParam<SizeDensitySeed> {
 protected:
  UndirectedGraph MakeGraph() {
    const auto& [n, p, seed] = GetParam();
    Rng rng(seed);
    return RandomUndirectedGraph(n, p, 0.5, 2.0, true, rng);
  }
};

TEST_P(UndirectedPropertyTest, HandshakeAndCutIdentity) {
  const UndirectedGraph g = MakeGraph();
  const int n = g.num_vertices();
  double degree_sum = 0;
  for (int v = 0; v < n; ++v) degree_sum += Degree(g, v);
  EXPECT_NEAR(degree_sum, 2 * g.TotalWeight(), 1e-9);
  // cut(S) = Σ_{v∈S} deg(v) − 2·w(S, S) for random S.
  Rng rng(std::get<2>(GetParam()) + 1);
  for (int trial = 0; trial < 10; ++trial) {
    VertexSet side(static_cast<size_t>(n));
    for (auto& b : side) b = static_cast<uint8_t>(rng.Next() & 1);
    if (!IsProperCutSide(side)) continue;
    double inside = 0;
    double degrees = 0;
    for (const Edge& e : g.edges()) {
      if (side[static_cast<size_t>(e.src)] &&
          side[static_cast<size_t>(e.dst)]) {
        inside += e.weight;
      }
    }
    for (int v = 0; v < n; ++v) {
      if (side[static_cast<size_t>(v)]) degrees += Degree(g, v);
    }
    EXPECT_NEAR(g.CutWeight(side), degrees - 2 * inside, 1e-9);
  }
}

TEST_P(UndirectedPropertyTest, MinCutAlgorithmsAgree) {
  const UndirectedGraph g = MakeGraph();
  const double stoer_wagner = StoerWagnerMinCut(g).value;
  Rng rng(std::get<2>(GetParam()) + 2);
  const double karger_stein = KargerSteinMinCut(g, rng, 10).value;
  EXPECT_NEAR(karger_stein, stoer_wagner, 1e-9);
  // Min cut is also min over s-t max flows from vertex 0.
  double flow_min = 1e18;
  for (int t = 1; t < g.num_vertices(); ++t) {
    flow_min = std::min(flow_min, MaxFlowUndirected(g, 0, t).flow_value);
  }
  EXPECT_NEAR(flow_min, stoer_wagner, 1e-6);
}

TEST_P(UndirectedPropertyTest, StoerWagnerSideIsConsistent) {
  const UndirectedGraph g = MakeGraph();
  const GlobalMinCut cut = StoerWagnerMinCut(g);
  EXPECT_TRUE(IsProperCutSide(cut.side));
  EXPECT_NEAR(g.CutWeight(cut.side), cut.value, 1e-9);
}

TEST_P(UndirectedPropertyTest, StrengthsRespectWeightLowerBound) {
  const UndirectedGraph g = MakeGraph();
  const std::vector<double> strengths = NagamochiIbarakiStrengths(g);
  double inverse_sum = 0;
  for (size_t i = 0; i < strengths.size(); ++i) {
    EXPECT_GE(strengths[i], g.edges()[i].weight - 1e-9);
    inverse_sum += g.edges()[i].weight / strengths[i];
  }
  // Σ w_e/λ_e = O(n log(n·W)): the sparsifier size driver.
  const double n = g.num_vertices();
  EXPECT_LE(inverse_sum, 4 * n * std::log2(n + 4));
}

TEST_P(UndirectedPropertyTest, GomoryHuDominatesStrengths) {
  // Every NI strength is a lower bound on the endpoint min cut, which the
  // Gomory-Hu tree reports exactly (geometric peeling adds <= 12.5%).
  const UndirectedGraph g = MakeGraph();
  const GomoryHuTree tree(g);
  const std::vector<double> strengths = NagamochiIbarakiStrengths(g);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const Edge& e = g.edges()[i];
    EXPECT_LE(strengths[i],
              1.125 * tree.MinCutValue(e.src, e.dst) + 1e-6);
  }
}

TEST_P(UndirectedPropertyTest, GomoryHuGlobalMatchesStoerWagner) {
  const UndirectedGraph g = MakeGraph();
  EXPECT_NEAR(GomoryHuTree(g).GlobalMinCutValue(),
              StoerWagnerMinCut(g).value, 1e-6);
}

TEST_P(UndirectedPropertyTest, AgmComponentCountMatchesTruth) {
  const UndirectedGraph g = MakeGraph();
  // AGM requires unweighted inputs: reuse the topology with unit weights.
  UndirectedGraph unit(g.num_vertices());
  for (const Edge& e : g.edges()) unit.AddEdge(e.src, e.dst, 1.0);
  const AgmConnectivitySketch sketch =
      SketchGraph(unit, 0, std::get<2>(GetParam()) + 11);
  EXPECT_EQ(sketch.CountComponents(), CountComponents(unit));
}

TEST_P(UndirectedPropertyTest, SparsifierEstimatesAreUnbiasedOnAverage) {
  const UndirectedGraph g = MakeGraph();
  const int n = g.num_vertices();
  Rng side_rng(std::get<2>(GetParam()) + 3);
  VertexSet side(static_cast<size_t>(n));
  do {
    for (auto& b : side) b = static_cast<uint8_t>(side_rng.Next() & 1);
  } while (!IsProperCutSide(side));
  const double exact = g.CutWeight(side);
  double sum = 0;
  const int builds = 40;
  for (int b = 0; b < builds; ++b) {
    Rng rng(std::get<2>(GetParam()) * 100 + b);
    const ForEachCutSketch sketch(g, 0.4, rng);
    sum += sketch.EstimateCut(side);
  }
  EXPECT_NEAR(sum / builds, exact, 0.15 * exact + 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UndirectedPropertyTest,
    ::testing::Values(SizeDensitySeed{10, 0.3, 1}, SizeDensitySeed{16, 0.2, 2},
                      SizeDensitySeed{16, 0.6, 3}, SizeDensitySeed{24, 0.15, 4},
                      SizeDensitySeed{24, 0.5, 5},
                      SizeDensitySeed{32, 0.25, 6}));

using BetaSeed = std::tuple<double, uint64_t>;

class DirectedPropertyTest : public ::testing::TestWithParam<BetaSeed> {
 protected:
  DirectedGraph MakeGraph() {
    const auto& [beta, seed] = GetParam();
    Rng rng(seed);
    return RandomBalancedDigraph(14, 0.4, beta, rng);
  }
};

TEST_P(DirectedPropertyTest, SymmetrizationIdentityOnAllSingletons) {
  const DirectedGraph g = MakeGraph();
  const UndirectedGraph sym = g.Symmetrized();
  for (int v = 0; v < g.num_vertices(); ++v) {
    const VertexSet side = MakeVertexSet(g.num_vertices(), {v});
    EXPECT_NEAR(sym.CutWeight(side),
                g.CutWeight(side) + g.CutWeight(ComplementSet(side)), 1e-9);
  }
}

TEST_P(DirectedPropertyTest, ImbalanceDecompositionRecoversDirectedCuts) {
  const DirectedGraph g = MakeGraph();
  const std::vector<double> imbalance = VertexImbalances(g);
  const UndirectedGraph sym = g.Symmetrized();
  Rng rng(std::get<1>(GetParam()) + 7);
  for (int trial = 0; trial < 15; ++trial) {
    VertexSet side(static_cast<size_t>(g.num_vertices()));
    for (auto& b : side) b = static_cast<uint8_t>(rng.Next() & 1);
    if (!IsProperCutSide(side)) continue;
    double d = 0;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (side[static_cast<size_t>(v)]) d += imbalance[static_cast<size_t>(v)];
    }
    // w(S, V∖S) = (u(S) + d(S))/2 — the decomposition all directed
    // sketches rely on.
    EXPECT_NEAR((sym.CutWeight(side) + d) / 2, g.CutWeight(side), 1e-9);
  }
}

TEST_P(DirectedPropertyTest, BalanceWithinCertificate) {
  const DirectedGraph g = MakeGraph();
  const auto certificate = PerEdgeBalanceCertificate(g);
  ASSERT_TRUE(certificate.has_value());
  EXPECT_LE(MeasureBalanceExact(g), *certificate + 1e-9);
}

TEST_P(DirectedPropertyTest, DirectedSamplerUnbiasedOnSingletons) {
  const DirectedGraph g = MakeGraph();
  const auto& [beta, seed] = GetParam();
  const VertexSet side = MakeVertexSet(g.num_vertices(), {0});
  const double exact = g.CutWeight(side);
  double sum = 0;
  const int builds = 30;
  for (int b = 0; b < builds; ++b) {
    Rng rng(seed * 1000 + b);
    const DirectedImportanceSamplerSketch sketch(g, 0.5, beta, rng, 0.5);
    sum += sketch.EstimateCut(side);
  }
  EXPECT_NEAR(sum / builds, exact, 0.2 * exact + 0.5);
}

TEST_P(DirectedPropertyTest, EulerianDecompositionOfSymmetrizedPairs) {
  // Turning the graph into an Eulerian one by mirroring every edge makes
  // the cycle peeling exact (empty residual) and the `eulerian` backend's
  // imbalance zero.
  const DirectedGraph g = MakeGraph();
  DirectedGraph mirrored(g.num_vertices());
  for (const Edge& e : g.edges()) {
    mirrored.AddEdge(e.src, e.dst, e.weight);
    mirrored.AddEdge(e.dst, e.src, e.weight);
  }
  const CyclePeeling peeling = PeelCycles(mirrored);
  EXPECT_EQ(peeling.residual.num_edges(), 0);
  const DirectedGraph rebuilt =
      GraphFromCycles(mirrored.num_vertices(), peeling.cycles);
  for (int v = 0; v < mirrored.num_vertices(); ++v) {
    EXPECT_NEAR(OutDegree(rebuilt, v), OutDegree(mirrored, v), 1e-6);
  }
  BackendOptions options;
  options.epsilon = 0.5;
  options.oversample_c = 0.5;
  options.seed = std::get<1>(GetParam()) + 77;
  const auto sketch = BuildBackendSketch("eulerian", mirrored, options);
  ASSERT_TRUE(sketch.ok()) << sketch.status().message();
  for (int v = 0; v < mirrored.num_vertices(); ++v) {
    const VertexSet side = MakeVertexSet(mirrored.num_vertices(), {v});
    EXPECT_NEAR((*sketch)->EstimateCut(side),
                (*sketch)->EstimateCut(ComplementSet(side)), 1e-9);
  }
}

// PeelCycles's exact split on general digraphs: the rebuilt cycles plus
// the residual reproduce every singleton cut and random cuts of the input,
// in both directions.
void ExpectPeelingSplitsExactly(const DirectedGraph& g, uint64_t seed,
                                const std::string& label) {
  const CyclePeeling peeling = PeelCycles(g);
  DirectedGraph sum = GraphFromCycles(g.num_vertices(), peeling.cycles);
  for (const Edge& e : peeling.residual.edges()) {
    sum.AddEdge(e.src, e.dst, e.weight);
  }
  const int n = g.num_vertices();
  std::vector<VertexSet> sides;
  for (int v = 0; v < n; ++v) sides.push_back(MakeVertexSet(n, {v}));
  Rng rng(seed);
  for (int trial = 0; trial < 15; ++trial) {
    VertexSet side(static_cast<size_t>(n));
    for (auto& b : side) b = static_cast<uint8_t>(rng.Next() & 1);
    if (IsProperCutSide(side)) sides.push_back(std::move(side));
  }
  for (const VertexSet& side : sides) {
    EXPECT_NEAR(sum.CutWeight(side), g.CutWeight(side), 1e-9) << label;
    EXPECT_NEAR(sum.CutWeight(ComplementSet(side)),
                g.CutWeight(ComplementSet(side)), 1e-9)
        << label;
  }
}

TEST_P(DirectedPropertyTest, PeelCyclesSplitsGeneralDigraphsExactly) {
  const auto& [beta, seed] = GetParam();
  ExpectPeelingSplitsExactly(MakeGraph(), seed + 5, "random balanced");
  for (const ZooFamily family : AllZooFamilies()) {
    ZooOptions options;
    options.n = 16;
    options.beta = beta;
    options.seed = seed;
    ExpectPeelingSplitsExactly(MakeZooInstance(family, options).graph,
                               seed + 6, ZooFamilyName(family));
  }
}

INSTANTIATE_TEST_SUITE_P(BetaSweep, DirectedPropertyTest,
                         ::testing::Values(BetaSeed{1.0, 11},
                                           BetaSeed{2.0, 12},
                                           BetaSeed{4.0, 13},
                                           BetaSeed{8.0, 14}));

// Differential sweep across the backend registry: 200 random balanced
// digraphs (8 blocks of 25, parameterized so ctest can run blocks in
// parallel), each with its own size, density, and β. Every registered
// backend must estimate every probe cut — all singletons, random proper
// sides, and the side of the exact Dinic-based directed global min cut —
// within the error bound it advertises for its options. For-each backends
// get the median boost their per-cut contract requires before any
// simultaneous-cut claim makes sense.
class BackendDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendDifferentialTest, AllBackendsWithinDeclaredEpsilon) {
  constexpr int kGraphsPerBlock = 25;
  const int block = GetParam();
  for (int index = 0; index < kGraphsPerBlock; ++index) {
    const uint64_t graph_id =
        static_cast<uint64_t>(block * kGraphsPerBlock + index);
    Rng rng(SubtaskSeed(991, graph_id));
    const int n = 8 + static_cast<int>(rng.UniformInt(7));
    const double density = 0.3 + 0.4 * rng.UniformDouble();
    const double beta = static_cast<double>(uint64_t{1} << rng.UniformInt(4));
    const DirectedGraph graph = RandomBalancedDigraph(n, density, beta, rng);

    // Probe sides. The generator's bidirected Hamiltonian backbone makes
    // the graph strongly connected, so every proper cut is positive and
    // relative error against the exact value is well defined.
    std::vector<VertexSet> sides;
    for (int v = 0; v < n; ++v) {
      sides.push_back(MakeVertexSet(n, {v}));
    }
    for (int probe = 0; probe < 4; ++probe) {
      VertexSet side(static_cast<size_t>(n), 0);
      for (auto& b : side) b = static_cast<uint8_t>(rng.Next() & 1);
      if (!IsProperCutSide(side)) side[0] ^= 1;
      sides.push_back(std::move(side));
    }
    sides.push_back(DirectedGlobalMinCut(graph).side);

    for (const BackendInfo& backend : RegisteredBackends()) {
      BackendOptions options;
      options.epsilon = 0.3;
      options.beta = beta;
      options.seed = SubtaskSeed(graph_id, 1);
      options.median_boost = 5;
      const auto sketch = BuildBackendSketch(backend.name, graph, options);
      ASSERT_TRUE(sketch.ok()) << sketch.status().message();
      const double bound = BackendAdvertisedError(backend.name, options);
      for (const VertexSet& side : sides) {
        const double exact = graph.CutWeight(side);
        ASSERT_GT(exact, 0);
        const double estimate = (*sketch)->EstimateCut(side);
        EXPECT_LE(std::abs(estimate - exact), bound * exact + 1e-6)
            << backend.name << " on graph " << graph_id << " (n=" << n
            << " beta=" << beta << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoHundredDigraphs, BackendDifferentialTest,
                         ::testing::Range(0, 8));

// Serialized-size accounting (DESIGN.md §8): serializing a sketch records
// exactly one `serialization.payload_bits.<kind>` sample for the sketch's
// own stream kind, and its value equals the envelope's payload bit-count
// field as read back from the wire. Checked for all four sketch kinds.
// (Directed sketches nest an enveloped graph inside their payload, so the
// metrics diff also shows the inner graph's kind — the assertions key on
// the outer kind only.) Skipped when metrics are compiled out: the counts
// do not exist in that configuration.
class SerializationAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !DCS_METRICS_ENABLED
    GTEST_SKIP() << "library compiled with DCS_ENABLE_METRICS=OFF";
#endif
  }

  // Serializes via `serialize` (the object must already be built: sketch
  // constructors serialize once internally to precompute SizeInBits, which
  // would double the sample count inside the diff window), then checks the
  // metric sample against the payload bit-count field decoded from the
  // stream itself. The diff's min/max are defined to come from the later
  // full snapshot, so only count and sum are asserted here.
  void ExpectPayloadBitsMatchEnvelope(
      StreamKind kind, const std::function<void(BitWriter&)>& serialize) {
    const std::string metric =
        std::string("serialization.payload_bits.") + StreamKindName(kind);
    const metrics::MetricsSnapshot before =
        metrics::Registry::Get().Snapshot();
    BitWriter writer;
    serialize(writer);
    const metrics::MetricsSnapshot diff =
        metrics::Registry::Get().Snapshot().DiffSince(before);
    const auto it = diff.distributions.find(metric);
    ASSERT_NE(it, diff.distributions.end()) << metric;
    EXPECT_EQ(it->second.count, 1) << metric;
    BitReader reader(writer.bytes());
    const StatusOr<EnvelopePayload> payload =
        ReadEnvelopePayload(kind, reader);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(it->second.sum, payload->bit_count) << metric;
  }
};

TEST_F(SerializationAccountingTest, PayloadBitsMatchForAllFourSketchKinds) {
  Rng rng(321);
  const UndirectedGraph ugraph = RandomUndirectedGraph(20, 0.3, 0.5, 2.0,
                                                       true, rng);
  const DirectedGraph dgraph = RandomBalancedDigraph(16, 0.4, 2.0, rng);
  const ForEachCutSketch foreach_sketch(ugraph, 0.4, rng);
  const BenczurKargerSparsifier forall_sparsifier(ugraph, 0.4, rng);
  const DirectedForEachSketch directed_foreach(dgraph, 0.4, 2.0, rng);
  const DirectedForAllSketch directed_forall(dgraph, 0.4, 2.0, rng);

  ExpectPayloadBitsMatchEnvelope(
      StreamKind::kForEachSketch,
      [&](BitWriter& writer) { foreach_sketch.Serialize(writer); });
  ExpectPayloadBitsMatchEnvelope(
      StreamKind::kForAllSparsifier,
      [&](BitWriter& writer) { forall_sparsifier.Serialize(writer); });
  ExpectPayloadBitsMatchEnvelope(
      StreamKind::kDirectedForEachSketch,
      [&](BitWriter& writer) { directed_foreach.Serialize(writer); });
  ExpectPayloadBitsMatchEnvelope(
      StreamKind::kDirectedForAllSketch,
      [&](BitWriter& writer) { directed_forall.Serialize(writer); });
}

TEST_F(SerializationAccountingTest, GraphEnvelopesAccountedToo) {
  // The plain graph serializers carry the same invariant, with no nesting.
  Rng rng(654);
  const UndirectedGraph ugraph = RandomUndirectedGraph(12, 0.4, 0.5, 2.0,
                                                       true, rng);
  const DirectedGraph dgraph = RandomBalancedDigraph(10, 0.5, 1.0, rng);
  ExpectPayloadBitsMatchEnvelope(
      StreamKind::kUndirectedGraph, [&](BitWriter& writer) {
        SerializeUndirectedGraph(ugraph, writer);
      });
  ExpectPayloadBitsMatchEnvelope(
      StreamKind::kDirectedGraph, [&](BitWriter& writer) {
        SerializeDirectedGraph(dgraph, writer);
      });
}

}  // namespace
}  // namespace dcs
