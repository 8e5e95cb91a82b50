// Golden equivalence of the cut fast paths against brute force:
// IncrementalCutOracle under randomized flip sequences vs a fresh O(m)
// CutWeight scan, and the many-sided CutWeights kernel vs the plain edge
// scan, vs a reference per-side frontier walk, vs itself one side at a
// time, and vs answer checksums pinned from the per-side walk it replaced.

#include "graph/incremental_cut_oracle.h"

#include <cstring>
#include <span>
#include <vector>

#include "fnv1a.h"
#include "graph/digraph.h"
#include "graph/types.h"
#include "graph/zoo.h"
#include "gtest/gtest.h"
#include "simd_paths.h"
#include "util/random.h"
#include "util/simd.h"

namespace dcs {
namespace {

// A random directed multigraph with dyadic weights (exact in double, so
// equality comparisons below are legitimate).
DirectedGraph RandomGraph(int num_vertices, int num_edges, Rng& rng) {
  DirectedGraph g(num_vertices);
  for (int e = 0; e < num_edges; ++e) {
    const int src = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(num_vertices)));
    int dst = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(num_vertices - 1)));
    if (dst >= src) ++dst;  // no self-loops
    const double weight =
        static_cast<double>(rng.UniformInRange(0, 31)) / 4.0;
    g.AddEdge(src, dst, weight);
  }
  return g;
}

VertexSet RandomSide(int num_vertices, Rng& rng) {
  return rng.RandomBinaryString(num_vertices);
}

TEST(IncrementalCutOracleTest, MatchesBruteForceUnderRandomFlips) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.UniformInRange(2, 24));
    const int m = static_cast<int>(rng.UniformInRange(0, 4 * n));
    const DirectedGraph g = RandomGraph(n, m, rng);
    VertexSet side = RandomSide(n, rng);
    IncrementalCutOracle oracle(g, side);
    EXPECT_EQ(oracle.value(), g.CutWeight(side));
    for (int step = 0; step < 100; ++step) {
      const VertexId v =
          static_cast<VertexId>(rng.UniformInt(static_cast<uint64_t>(n)));
      side[static_cast<size_t>(v)] ^= 1;
      oracle.Flip(v);
      ASSERT_EQ(oracle.value(), g.CutWeight(side))
          << "round " << round << " step " << step << " flip " << v;
    }
  }
}

TEST(IncrementalCutOracleTest, FlipIsAnInvolution) {
  Rng rng(13);
  const DirectedGraph g = RandomGraph(10, 30, rng);
  const VertexSet side = RandomSide(10, rng);
  IncrementalCutOracle oracle(g, side);
  const double before = oracle.value();
  oracle.Flip(4);
  oracle.Flip(4);
  EXPECT_EQ(oracle.value(), before);
  EXPECT_EQ(oracle.side(), VertexSet(side.begin(), side.end()));
}

TEST(IncrementalCutOracleTest, AcceptsNonNormalizedSideBytes) {
  // VertexSet membership is "byte != 0"; the oracle must not be confused
  // by bytes other than 0/1.
  DirectedGraph g(3);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2, 4.0);
  VertexSet side = {0, 7, 0};  // S = {1}
  IncrementalCutOracle oracle(g, side);
  EXPECT_EQ(oracle.value(), 4.0);
  oracle.Flip(1);  // S = {}
  EXPECT_EQ(oracle.value(), 0.0);
  oracle.Flip(0);  // S = {0}
  EXPECT_EQ(oracle.value(), 2.0);
}

TEST(IncrementalCutOracleTest, ResetReplacesTheSide) {
  Rng rng(17);
  const DirectedGraph g = RandomGraph(12, 40, rng);
  IncrementalCutOracle oracle(g, RandomSide(12, rng));
  const VertexSet fresh = RandomSide(12, rng);
  oracle.Reset(fresh);
  EXPECT_EQ(oracle.value(), g.CutWeight(fresh));
}

// One side through the batched kernel.
double CutWeightOf(const DirectedGraph& g, const VertexSet& side) {
  const VertexSet* const sides[] = {&side};
  double value = 0;
  g.CutWeights(sides, std::span<double>(&value, 1));
  return value;
}

std::vector<double> CutWeightsOf(const DirectedGraph& g,
                                 const std::vector<VertexSet>& sides) {
  std::vector<const VertexSet*> pointers;
  for (const VertexSet& side : sides) pointers.push_back(&side);
  std::vector<double> values(sides.size());
  g.CutWeights(pointers, values);
  return values;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The per-side walk in its own order: the cheaper of S's out-edges and
// (V∖S)'s in-edges, vertex by vertex over the CSR adjacency, or the edge
// scan when neither frontier is below m. The kernel must reproduce its
// sums bit for bit.
double ReferenceWalk(const DirectedGraph& g, const VertexSet& side) {
  const auto in_s = [&](VertexId v) {
    return side[static_cast<size_t>(v)] != 0;
  };
  int64_t out_volume = 0;
  int64_t in_volume = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (in_s(v)) {
      out_volume += static_cast<int64_t>(g.OutEdgeIds(v).size());
    } else {
      in_volume += static_cast<int64_t>(g.InEdgeIds(v).size());
    }
  }
  const int64_t volume = std::min(out_volume, in_volume);
  if (volume == 0) return 0;
  if (volume >= g.num_edges()) return g.CutWeight(side);
  const bool out_walk = out_volume <= in_volume;
  double total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (in_s(v) != out_walk) continue;
    for (const int64_t id : out_walk ? g.OutEdgeIds(v) : g.InEdgeIds(v)) {
      const Edge& e = g.edges()[static_cast<size_t>(id)];
      if (out_walk ? !in_s(e.dst) : in_s(e.src)) total += e.weight;
    }
  }
  return total;
}

TEST(CutWeightOverloadTest, VolumeBoundedMatchesEdgeScan) {
  Rng rng(19);
  for (int round = 0; round < 30; ++round) {
    const int n = static_cast<int>(rng.UniformInRange(2, 20));
    const int m = static_cast<int>(rng.UniformInRange(0, 5 * n));
    const DirectedGraph g = RandomGraph(n, m, rng);
    for (int trial = 0; trial < 10; ++trial) {
      const VertexSet side = RandomSide(n, rng);
      ASSERT_EQ(CutWeightOf(g, side), g.CutWeight(side))
          << "round " << round << " trial " << trial;
    }
  }
}

TEST(CutWeightOverloadTest, EmptyAndFullSidesShortCircuitToZero) {
  Rng rng(23);
  const DirectedGraph g = RandomGraph(8, 20, rng);
  EXPECT_EQ(CutWeightOf(g, VertexSet(8, 0)), 0.0);
  EXPECT_EQ(CutWeightOf(g, VertexSet(8, 1)), 0.0);
}

// A random multigraph with 0.5 + U(0,1) weights (the e2e benchmark's
// generator). The weights are not dyadic, so every sum below depends on the
// order of its additions.
DirectedGraph UniformWeightGraph(int num_vertices, int num_edges, Rng& rng) {
  DirectedGraph g(num_vertices);
  for (int e = 0; e < num_edges; ++e) {
    const int src = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_vertices)));
    int dst = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_vertices - 1)));
    if (dst >= src) ++dst;
    g.AddEdge(src, dst, 0.5 + rng.UniformDouble());
  }
  return g;
}

// Every edge runs from the first half of the vertices to the second, so
// the side "first half" has out- and in-volume m: the edge-scan mode.
DirectedGraph HalfToHalfGraph(int num_vertices, int num_edges, Rng& rng) {
  const int half = num_vertices / 2;
  DirectedGraph g(num_vertices);
  for (int e = 0; e < num_edges; ++e) {
    const int src =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(half)));
    const int dst = half + static_cast<int>(rng.UniformInt(
                               static_cast<uint64_t>(num_vertices - half)));
    g.AddEdge(src, dst, 0.5 + rng.UniformDouble());
  }
  return g;
}

// Each vertex joins with probability `density`; members get an arbitrary
// nonzero byte, since membership is "byte != 0".
VertexSet DensitySide(int num_vertices, double density, Rng& rng) {
  VertexSet side(static_cast<size_t>(num_vertices), 0);
  for (uint8_t& byte : side) {
    if (rng.Bernoulli(density)) {
      byte = static_cast<uint8_t>(1 + rng.UniformInt(255));
    }
  }
  return side;
}

VertexSet FirstHalf(int num_vertices) {
  VertexSet side(static_cast<size_t>(num_vertices), 0);
  for (int v = 0; v < num_vertices / 2; ++v) side[static_cast<size_t>(v)] = 1;
  return side;
}

struct GoldenCase {
  DirectedGraph graph;
  std::vector<VertexSet> sides;
};

// Fixed-seed graphs and sides whose answers are pinned by checksum: sparse
// sides take the out-walk, dense ones the in-walk, and FirstHalf on the
// half-to-half graph the edge scan.
std::vector<GoldenCase> GoldenCases() {
  Rng rng(20240617);
  std::vector<GoldenCase> cases;
  const auto add = [&](DirectedGraph graph) {
    GoldenCase c{std::move(graph), {}};
    const int n = c.graph.num_vertices();
    for (const double density : {0.03, 0.25, 0.5, 0.75, 0.97}) {
      for (int s = 0; s < 16; ++s) {
        c.sides.push_back(DensitySide(n, density, rng));
      }
    }
    c.sides.push_back(FirstHalf(n));
    cases.push_back(std::move(c));
  };
  add(UniformWeightGraph(64, 1024, rng));
  add(UniformWeightGraph(256, 8192, rng));
  add(HalfToHalfGraph(64, 512, rng));
  for (const ZooFamily family : AllZooFamilies()) {
    ZooOptions options;
    options.n = 64;
    options.beta = 3.0;
    options.seed = 5;
    add(MakeZooInstance(family, options).graph);
  }
  return cases;
}

uint32_t AnswerChecksum(const std::vector<double>& answers) {
  return Fnv1a32(reinterpret_cast<const uint8_t*>(answers.data()),
                 answers.size() * sizeof(double));
}

// FNV-1a over the answer bits of GoldenCases(), recorded from the per-side
// frontier walk (CutWeight(side, DegreeIndex)) before the lane kernel
// replaced it. Most of these sums differ from the edge scan's in the last
// ulp, so the pin holds the kernel to the walk's exact addition order.
constexpr uint32_t kGoldenAnswerChecksum = 0x6ec95e1cu;

TEST(CutWeightsTest, GoldenAnswersMatchTheReplacedWalk) {
  const std::vector<GoldenCase> cases = GoldenCases();
  for (const simd::DispatchPath path : SupportedPaths()) {
    ScopedPath guard(path);
    std::vector<double> batched;
    std::vector<double> one_by_one;
    std::vector<double> reference;
    for (const GoldenCase& c : cases) {
      const std::vector<double> values = CutWeightsOf(c.graph, c.sides);
      batched.insert(batched.end(), values.begin(), values.end());
      for (const VertexSet& side : c.sides) {
        one_by_one.push_back(CutWeightOf(c.graph, side));
        reference.push_back(ReferenceWalk(c.graph, side));
      }
    }
    EXPECT_EQ(AnswerChecksum(batched), kGoldenAnswerChecksum)
        << simd::DispatchPathName(path);
    EXPECT_TRUE(SameBits(batched, one_by_one));
    EXPECT_TRUE(SameBits(batched, reference));
  }
}

// Every dispatch path of the lane kernel gives the forced-scalar bits for
// every batch size around the kernels' 4- and 8-lane groups and 64-lane
// passes, with all four modes in each batch, on a graph with parallel
// edges, isolated vertices and signed-zero weights.
TEST(CutWeightsTest, ForcedScalarMatchesDispatchedAnswers) {
  Rng rng(43);
  const int n = 40;
  const int half = n / 2;
  // Edges run from [0, half − 4) to [half, n − 4): the last four vertices
  // of each half are isolated, and S = first half is an edge-scan side.
  DirectedGraph g(n);
  for (int e = 0; e < 400; ++e) {
    const int src = static_cast<int>(rng.UniformInt(half - 4));
    const int dst = half + static_cast<int>(rng.UniformInt(half - 4));
    const uint64_t kind = rng.UniformInt(4);
    const double weight = kind == 0   ? 0.0
                          : kind == 1 ? -0.0
                                      : 0.5 + rng.UniformDouble();
    g.AddEdge(src, dst, weight);
    if (e % 3 == 0) g.AddEdge(src, dst, 0.5 + rng.UniformDouble());
  }
  const auto side_of_mode = [&](int mode) {
    VertexSet side(n, 0);
    switch (mode) {
      case 0:  // empty volume: no member has an out-edge
        for (int v = half; v < n; ++v) side[v] = rng.Bernoulli(0.5);
        side[half - 1] = rng.Bernoulli(0.5);
        break;
      case 1:  // out-walk: a few sources
        side = DensitySide(n, 0.08, rng);
        break;
      case 2:  // in-walk: all but a few sinks
        side = DensitySide(n, 0.92, rng);
        break;
      default:  // edge scan: every source in, every sink out
        side = FirstHalf(n);
        side[n - 1] = rng.Bernoulli(0.5);
        break;
    }
    return side;
  };
  for (const int k : {1, 3, 4, 5, 63, 64, 65, 130}) {
    std::vector<VertexSet> sides;
    for (int s = 0; s < k; ++s) sides.push_back(side_of_mode((s * 7 + k) % 4));
    std::vector<double> scalar;
    {
      ScopedPath guard(simd::DispatchPath::kScalar);
      scalar = CutWeightsOf(g, sides);
    }
    std::vector<double> reference;
    for (const VertexSet& side : sides) {
      reference.push_back(ReferenceWalk(g, side));
    }
    EXPECT_TRUE(SameBits(scalar, reference)) << "k " << k;
    for (const simd::DispatchPath path : SupportedPaths()) {
      ScopedPath guard(path);
      EXPECT_TRUE(SameBits(CutWeightsOf(g, sides), scalar))
          << simd::DispatchPathName(path) << " k " << k;
    }
  }
}

TEST(CutWeightsTest, LanesAreIndependentOfTheBatch) {
  Rng rng(29);
  const DirectedGraph g = UniformWeightGraph(96, 1500, rng);
  for (const int k : {1, 2, 63, 64, 65, 130}) {
    std::vector<VertexSet> sides;
    for (int s = 0; s < k; ++s) {
      sides.push_back(DensitySide(96, 0.1 + 0.8 * (s % 9) / 8.0, rng));
    }
    std::vector<double> one_by_one;
    for (const VertexSet& side : sides) {
      one_by_one.push_back(CutWeightOf(g, side));
    }
    EXPECT_TRUE(SameBits(CutWeightsOf(g, sides), one_by_one)) << "k " << k;
  }
}

TEST(CutWeightsTest, OneBatchMixesEveryMode) {
  Rng rng(31);
  const int n = 32;
  const DirectedGraph g = HalfToHalfGraph(n, 300, rng);
  VertexSet out_walk(n, 0);  // one source vertex: tiny out-volume
  out_walk[3] = 1;
  VertexSet in_walk(n, 1);  // one sink vertex outside: tiny in-volume
  in_walk[n - 2] = 0;
  const std::vector<VertexSet> sides = {
      VertexSet(n, 0), VertexSet(n, 1), FirstHalf(n), out_walk, in_walk};
  const std::vector<double> values = CutWeightsOf(g, sides);
  ASSERT_EQ(values.size(), sides.size());
  EXPECT_EQ(values[0], 0.0);
  EXPECT_EQ(values[1], 0.0);
  EXPECT_GT(values[2], 0.0);
  EXPECT_GT(values[3], 0.0);
  EXPECT_GT(values[4], 0.0);
  std::vector<double> reference;
  for (const VertexSet& side : sides) {
    reference.push_back(ReferenceWalk(g, side));
  }
  EXPECT_TRUE(SameBits(values, reference));
  // The scan side is the reference edge scan itself.
  EXPECT_EQ(values[2], g.CutWeight(FirstHalf(n)));
}

TEST(CutWeightsTest, AnyNonzeroByteIsAMember) {
  Rng rng(37);
  const DirectedGraph g = UniformWeightGraph(16, 120, rng);
  VertexSet ones(16, 0);
  VertexSet odd_bytes(16, 0);
  for (const int v : {1, 4, 9, 12}) {
    ones[static_cast<size_t>(v)] = 1;
    odd_bytes[static_cast<size_t>(v)] = v % 2 == 0 ? 2 : 255;
  }
  const std::vector<double> values = CutWeightsOf(g, {odd_bytes, ones});
  EXPECT_EQ(std::memcmp(&values[0], &values[1], sizeof(double)), 0);
  EXPECT_EQ(values[1], CutWeightOf(g, ones));
  EXPECT_GT(values[0], 0.0);
}

// The packed prelude at the word edges: n with a partial word, exactly one
// word, a lone tail vertex past whole words; passes of 64 and 65 sides (a
// second pass of one); empty and full sides (empty volume), the edge-scan
// side, and membership bytes other than 1. Every answer is the reference
// walk's and the same side's asked alone.
TEST(CutWeightsTest, PackedPreludeEdgeCases) {
  Rng rng(41);
  for (const int n : {1, 7, 63, 64, 65, 129}) {
    const DirectedGraph g =
        n >= 2 ? HalfToHalfGraph(n, 12 * n, rng) : DirectedGraph(n);
    for (const int k : {64, 65}) {
      std::vector<VertexSet> sides;
      for (int s = 0; s < k; ++s) {
        switch (s % 6) {
          case 0:
            sides.push_back(VertexSet(static_cast<size_t>(n), 0));
            break;
          case 1:
            sides.push_back(VertexSet(static_cast<size_t>(n), 255));
            break;
          case 2:
            sides.push_back(FirstHalf(n));
            break;
          default: {
            VertexSet side = DensitySide(n, 0.1 + 0.25 * (s % 4), rng);
            for (uint8_t& byte : side) {
              if (byte != 0) byte = s % 2 == 0 ? 2 : 255;
            }
            sides.push_back(std::move(side));
          }
        }
      }
      const std::vector<double> values = CutWeightsOf(g, sides);
      std::vector<double> alone;
      std::vector<double> reference;
      for (const VertexSet& side : sides) {
        alone.push_back(CutWeightOf(g, side));
        reference.push_back(ReferenceWalk(g, side));
      }
      EXPECT_TRUE(SameBits(values, alone)) << "n " << n << " k " << k;
      EXPECT_TRUE(SameBits(values, reference)) << "n " << n << " k " << k;
      EXPECT_EQ(values[0], 0.0);
      EXPECT_EQ(values[1], 0.0);
      if (n >= 4) {
        EXPECT_GT(values[2], 0.0) << "n " << n;
      }
    }
  }
}

TEST(CutQueryHelperTest, ComplementAndSetSize) {
  const VertexSet side = {0, 1, 5, 0, 1};
  EXPECT_EQ(SetSize(side), 3);
  const VertexSet complement = ComplementSet(side);
  ASSERT_EQ(complement.size(), side.size());
  EXPECT_EQ(complement, (VertexSet{1, 0, 0, 1, 0}));
  EXPECT_EQ(SetSize(complement), 2);
}

}  // namespace
}  // namespace dcs
