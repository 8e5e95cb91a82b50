#include "sketch/serialization.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace dcs {
namespace {

TEST(SerializationTest, DirectedGraphRoundTrip) {
  Rng rng(1);
  const DirectedGraph g = RandomBalancedDigraph(12, 0.4, 3.0, rng);
  BitWriter writer;
  SerializeDirectedGraph(g, writer);
  BitReader reader(writer.bytes());
  const DirectedGraph back = DeserializeDirectedGraph(reader).value();
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (int64_t i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(back.edges()[static_cast<size_t>(i)],
              g.edges()[static_cast<size_t>(i)]);
  }
}

TEST(SerializationTest, UndirectedGraphRoundTrip) {
  Rng rng(2);
  const UndirectedGraph g =
      RandomUndirectedGraph(15, 0.3, 0.5, 2.5, true, rng);
  BitWriter writer;
  SerializeUndirectedGraph(g, writer);
  BitReader reader(writer.bytes());
  const UndirectedGraph back = DeserializeUndirectedGraph(reader).value();
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  const VertexSet side = MakeVertexSet(15, {0, 3, 7, 9});
  EXPECT_DOUBLE_EQ(back.CutWeight(side), g.CutWeight(side));
}

TEST(SerializationTest, EmptyGraph) {
  const DirectedGraph g(5);
  BitWriter writer;
  SerializeDirectedGraph(g, writer);
  BitReader reader(writer.bytes());
  const DirectedGraph back = DeserializeDirectedGraph(reader).value();
  EXPECT_EQ(back.num_vertices(), 5);
  EXPECT_EQ(back.num_edges(), 0);
}

TEST(SerializationTest, DoubleVectorRoundTrip) {
  const std::vector<double> values = {0.0, -1.25, 3e17, 1e-300};
  BitWriter writer;
  SerializeDoubleVector(values, writer);
  BitReader reader(writer.bytes());
  EXPECT_EQ(DeserializeDoubleVector(reader).value(), values);
}

TEST(SerializationTest, SizeInBitsMatchesWriter) {
  Rng rng(3);
  const UndirectedGraph g =
      RandomUndirectedGraph(10, 0.5, 1.0, 1.0, false, rng);
  BitWriter writer;
  SerializeUndirectedGraph(g, writer);
  EXPECT_EQ(SerializedSizeInBits(g), writer.bit_count());
}

TEST(SerializationTest, SizeGrowsWithEdges) {
  UndirectedGraph small(10);
  small.AddEdge(0, 1, 1.0);
  UndirectedGraph large(10);
  for (int v = 0; v + 1 < 10; ++v) large.AddEdge(v, v + 1, 1.0);
  EXPECT_LT(SerializedSizeInBits(small), SerializedSizeInBits(large));
}

TEST(SerializationTest, MultipleGraphsInOneStream) {
  const DirectedGraph a = CompleteBipartiteDigraph(2, 2, 1.0, 0.5);
  const UndirectedGraph b = CycleGraph(4, 2.0);
  BitWriter writer;
  SerializeDirectedGraph(a, writer);
  SerializeUndirectedGraph(b, writer);
  BitReader reader(writer.bytes());
  const DirectedGraph a_back = DeserializeDirectedGraph(reader).value();
  const UndirectedGraph b_back = DeserializeUndirectedGraph(reader).value();
  EXPECT_EQ(a_back.num_edges(), a.num_edges());
  EXPECT_EQ(b_back.num_edges(), b.num_edges());
}

// Serializes the graph-payload fields by hand so corrupt field values can
// be wrapped in a valid envelope (checksum intact) and must be caught by
// the field validation itself.
BitWriter EnvelopedDirectedPayload(const std::vector<uint64_t>& gammas,
                                   double weight) {
  BitWriter payload;
  for (uint64_t g : gammas) payload.WriteEliasGamma(g);
  payload.WriteDouble(weight);
  BitWriter writer;
  WriteEnvelope(StreamKind::kDirectedGraph, payload, writer);
  return writer;
}

TEST(SerializationStatusTest, DoubleVectorCountCappedByRemainingBits) {
  BitWriter writer;
  // Claims ~10^12 entries with only one value present: must fail before
  // allocating, not attempt a multi-terabyte vector.
  writer.WriteEliasGamma(uint64_t{1} << 40);
  writer.WriteDouble(1.0);
  BitReader reader(writer.bytes());
  const auto result = DeserializeDoubleVector(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(SerializationStatusTest, DoubleVectorRejectsNonFiniteEntries) {
  BitWriter writer;
  writer.WriteEliasGamma(1);
  writer.WriteDouble(std::numeric_limits<double>::quiet_NaN());
  BitReader reader(writer.bytes());
  const auto result = DeserializeDoubleVector(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationStatusTest, GraphEdgeCountCappedByRemainingBits) {
  // n=4, m=10^12, no edge data: the count cap must fire.
  const BitWriter writer =
      EnvelopedDirectedPayload({4, uint64_t{1} << 40, 0, 1}, 1.0);
  BitReader reader(writer.bytes());
  const auto result = DeserializeDirectedGraph(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(SerializationStatusTest, GraphRejectsOutOfRangeEndpoint) {
  const BitWriter writer = EnvelopedDirectedPayload({3, 1, 0, 7}, 1.0);
  BitReader reader(writer.bytes());
  const auto result = DeserializeDirectedGraph(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationStatusTest, GraphRejectsSelfLoop) {
  const BitWriter writer = EnvelopedDirectedPayload({3, 1, 2, 2}, 1.0);
  BitReader reader(writer.bytes());
  EXPECT_FALSE(DeserializeDirectedGraph(reader).ok());
}

TEST(SerializationStatusTest, GraphRejectsNaNWeight) {
  const BitWriter writer = EnvelopedDirectedPayload(
      {3, 1, 0, 1}, std::numeric_limits<double>::quiet_NaN());
  BitReader reader(writer.bytes());
  const auto result = DeserializeDirectedGraph(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationStatusTest, GraphRejectsNegativeWeight) {
  const BitWriter writer = EnvelopedDirectedPayload({3, 1, 0, 1}, -2.0);
  BitReader reader(writer.bytes());
  EXPECT_FALSE(DeserializeDirectedGraph(reader).ok());
}

TEST(SerializationStatusTest, WrongStreamKindRejected) {
  const UndirectedGraph g = CycleGraph(4, 1.0);
  BitWriter writer;
  SerializeUndirectedGraph(g, writer);
  BitReader reader(writer.bytes());
  const auto result = DeserializeDirectedGraph(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(SerializationStatusTest, EmptyStreamRejected) {
  const std::vector<uint8_t> empty;
  BitReader reader(empty);
  EXPECT_FALSE(DeserializeDirectedGraph(reader).ok());
}

TEST(SerializationTest, FuzzRoundTripManyRandomGraphs) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    const int n = 2 + static_cast<int>(rng.UniformInt(30));
    const double p = rng.UniformDouble();
    const DirectedGraph g = RandomBalancedDigraph(
        n, p, 1.0 + 4 * rng.UniformDouble(), rng);
    BitWriter writer;
    SerializeDirectedGraph(g, writer);
    BitReader reader(writer.bytes());
    const DirectedGraph back = DeserializeDirectedGraph(reader).value();
    ASSERT_EQ(back.num_edges(), g.num_edges()) << "seed " << seed;
    ASSERT_EQ(reader.position(), writer.bit_count()) << "seed " << seed;
    for (int64_t i = 0; i < g.num_edges(); ++i) {
      ASSERT_EQ(back.edges()[static_cast<size_t>(i)],
                g.edges()[static_cast<size_t>(i)])
          << "seed " << seed;
    }
  }
}

// --- Word codec differential -------------------------------------------
//
// The graph codec moves whole words. These tests hold it to the per-field
// BitWriter/BitReader codec it replaced, which they carry as the oracle:
// the writer byte for byte, the reader status code, message and edges
// alike. Streams are handed over in exact-size heap buffers, so a word load
// past a buffer's end is an over-read ASan reports.

// One edge as it sits in the stream: any values, valid or not.
struct RawEdge {
  uint64_t src = 0;
  uint64_t dst = 0;
  double weight = 1.0;
};

// A graph payload written field by field. `extra_zeros`, when nonzero,
// replaces edge `zeros_edge`'s source code by that many zeros, a one and
// as many low bits again (an Elias-gamma code that long).
struct RawPayload {
  uint64_t n = 0;
  uint64_t m = 0;
  std::vector<RawEdge> edges;
  int extra_zeros = 0;
  size_t zeros_edge = 0;
};

BitWriter WriteRawPayload(const RawPayload& raw) {
  BitWriter payload;
  payload.WriteEliasGamma(raw.n);
  payload.WriteEliasGamma(raw.m);
  for (size_t i = 0; i < raw.edges.size(); ++i) {
    if (raw.extra_zeros > 0 && i == raw.zeros_edge) {
      for (int b = 0; b < raw.extra_zeros; ++b) payload.WriteBit(0);
      payload.WriteBit(1);
      for (int b = 0; b < raw.extra_zeros; ++b) payload.WriteBit(b & 1);
    } else {
      payload.WriteEliasGamma(raw.edges[i].src);
    }
    payload.WriteEliasGamma(raw.edges[i].dst);
    payload.WriteDouble(raw.edges[i].weight);
  }
  return payload;
}

template <typename GraphT>
RawPayload RawOf(const GraphT& graph) {
  RawPayload raw;
  raw.n = static_cast<uint64_t>(graph.num_vertices());
  raw.m = static_cast<uint64_t>(graph.num_edges());
  for (const Edge& e : graph.edges()) {
    raw.edges.push_back({static_cast<uint64_t>(e.src),
                         static_cast<uint64_t>(e.dst), e.weight});
  }
  return raw;
}

// The per-field reference parser: one Try read per field, then the range,
// self-loop and weight checks, then the trailing-bits check.
template <typename GraphT>
StatusOr<GraphT> ReferenceParse(const std::vector<uint8_t>& bytes,
                                int64_t bit_count) {
  constexpr uint64_t kCap = uint64_t{1} << 28;
  BitReader reader(bytes);
  DCS_ASSIGN_OR_RETURN(const uint64_t n, reader.TryReadEliasGamma());
  if (n > kCap) {
    return InvalidArgumentError("graph stream declares " + std::to_string(n) +
                                " vertices (cap " + std::to_string(kCap) +
                                ")");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t m, reader.TryReadEliasGamma());
  if (m > static_cast<uint64_t>(reader.RemainingBits() / 66)) {
    return DataLossError("graph stream declares " + std::to_string(m) +
                         " edges but only " +
                         std::to_string(reader.RemainingBits()) +
                         " payload bits remain");
  }
  GraphT graph(static_cast<int>(n));
  for (uint64_t i = 0; i < m; ++i) {
    DCS_ASSIGN_OR_RETURN(const uint64_t src, reader.TryReadEliasGamma());
    DCS_ASSIGN_OR_RETURN(const uint64_t dst, reader.TryReadEliasGamma());
    DCS_ASSIGN_OR_RETURN(const double weight, reader.TryReadDouble());
    if (src >= n || dst >= n) {
      return InvalidArgumentError(
          "edge " + std::to_string(i) + " endpoint out of range [0, " +
          std::to_string(n) + "): " + std::to_string(src) + " -> " +
          std::to_string(dst));
    }
    if (src == dst) {
      return InvalidArgumentError("edge " + std::to_string(i) +
                                  " is a self-loop at vertex " +
                                  std::to_string(src));
    }
    if (!std::isfinite(weight) || weight < 0) {
      return InvalidArgumentError("edge " + std::to_string(i) +
                                  " has non-finite or negative weight");
    }
    graph.AddEdge(static_cast<VertexId>(src), static_cast<VertexId>(dst),
                  weight);
  }
  if (reader.position() != bit_count) {
    return DataLossError("graph payload has trailing bits");
  }
  return graph;
}

template <typename GraphT>
StreamKind KindOf() {
  return std::is_same_v<GraphT, DirectedGraph> ? StreamKind::kDirectedGraph
                                               : StreamKind::kUndirectedGraph;
}

template <typename GraphT>
StatusOr<GraphT> Deserialize(BitReader& reader) {
  if constexpr (std::is_same_v<GraphT, DirectedGraph>) {
    return DeserializeDirectedGraph(reader);
  } else {
    return DeserializeUndirectedGraph(reader);
  }
}

template <typename GraphT>
void Serialize(const GraphT& graph, BitWriter& writer) {
  if constexpr (std::is_same_v<GraphT, DirectedGraph>) {
    SerializeDirectedGraph(graph, writer);
  } else {
    SerializeUndirectedGraph(graph, writer);
  }
}

// Seals `payload` and parses it both ways; the status code, the message and
// every edge (weights bit for bit) must agree.
template <typename GraphT>
void ExpectParsersAgree(const BitWriter& payload, const std::string& label) {
  BitWriter sealed;
  WriteEnvelope(KindOf<GraphT>(), payload, sealed);
  const std::vector<uint8_t> exact(sealed.bytes().begin(),
                                   sealed.bytes().end());
  BitReader reader(exact);
  const StatusOr<GraphT> got = Deserialize<GraphT>(reader);
  const std::vector<uint8_t> exact_payload(payload.bytes().begin(),
                                           payload.bytes().end());
  const StatusOr<GraphT> want =
      ReferenceParse<GraphT>(exact_payload, payload.bit_count());
  ASSERT_EQ(got.status().code(), want.status().code())
      << label << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  ASSERT_EQ(got.status().message(), want.status().message()) << label;
  if (!want.ok()) return;
  ASSERT_EQ(got->num_vertices(), want->num_vertices()) << label;
  ASSERT_EQ(got->num_edges(), want->num_edges()) << label;
  for (size_t i = 0; i < want->edges().size(); ++i) {
    const Edge& a = got->edges()[i];
    const Edge& b = want->edges()[i];
    ASSERT_TRUE(a.src == b.src && a.dst == b.dst &&
                std::bit_cast<uint64_t>(a.weight) ==
                    std::bit_cast<uint64_t>(b.weight))
        << label << ": edge " << i;
  }
}

// Weights whose bits must survive exactly.
const double kEdgeWeights[] = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::max(),
                               1.0,
                               0.3};

// A graph on `n` vertices whose endpoints are drawn from `ids` (each below
// n) or uniformly, with the weights above and random ones.
template <typename GraphT>
GraphT CodecGraph(int n, const std::vector<int>& ids, int m, Rng& rng) {
  GraphT graph(n);
  if (n < 2) return graph;
  for (int e = 0; e < m; ++e) {
    const auto pick = [&] {
      return !ids.empty() && rng.Bernoulli(0.5)
                 ? ids[rng.UniformInt(ids.size())]
                 : static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    };
    const int u = pick();
    int v = pick();
    if (v == u) v = (u + 1) % n;
    const double weight =
        rng.Bernoulli(0.5)
            ? kEdgeWeights[rng.UniformInt(std::size(kEdgeWeights))]
            : 4 * rng.UniformDouble();
    graph.AddEdge(u, v, weight);
  }
  return graph;
}

// Ids at 2^k - 1 and 2^k below n: every Elias-gamma length the vertex
// range reaches, on both sides of each length step.
std::vector<int> PowerIds(int n) {
  std::vector<int> ids;
  for (int k = 0; k <= 28; ++k) {
    const int64_t below = (int64_t{1} << k) - 1;
    if (below < n) ids.push_back(static_cast<int>(below));
    if ((int64_t{1} << k) < n) ids.push_back(1 << k);
  }
  return ids;
}

template <typename GraphT>
void ExpectWriterMatchesPerField(const GraphT& graph,
                                 const std::string& label) {
  BitWriter got;
  Serialize(graph, got);
  BitWriter want;
  WriteEnvelope(KindOf<GraphT>(), WriteRawPayload(RawOf(graph)), want);
  ASSERT_EQ(got.bit_count(), want.bit_count()) << label;
  ASSERT_EQ(got.bytes(), want.bytes()) << label;
  ExpectParsersAgree<GraphT>(WriteRawPayload(RawOf(graph)), label);
}

template <typename GraphT>
void WriterDifferential() {
  const int sizes[] = {1, 2, 3, 130, (1 << 14) + 3, (1 << 16) + 1, 1 << 28};
  for (const int n : sizes) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      Rng rng(seed * 7919 + static_cast<uint64_t>(n));
      const int m = static_cast<int>(rng.UniformInt(90));
      const GraphT graph = CodecGraph<GraphT>(n, PowerIds(n), m, rng);
      ExpectWriterMatchesPerField(
          graph, "n=" + std::to_string(n) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(SerializationCodecDifferentialTest, DirectedWriterMatchesPerField) {
  WriterDifferential<DirectedGraph>();
}

TEST(SerializationCodecDifferentialTest, UndirectedWriterMatchesPerField) {
  WriterDifferential<UndirectedGraph>();
}

// Every prefix of a payload, re-sealed, parses identically both ways: each
// truncation lands somewhere in a field, in the word-decoded body or in
// the per-field tail.
template <typename GraphT>
void TruncationDifferential(int n, uint64_t seed) {
  Rng rng(seed);
  const GraphT graph = CodecGraph<GraphT>(n, PowerIds(n), 24, rng);
  const BitWriter full = WriteRawPayload(RawOf(graph));
  for (int64_t bits = 0; bits <= full.bit_count(); ++bits) {
    BitWriter cut;
    cut.AppendBits(full.bytes(), bits);
    ExpectParsersAgree<GraphT>(cut, "n=" + std::to_string(n) +
                                        " truncated to " +
                                        std::to_string(bits));
  }
}

TEST(SerializationCodecDifferentialTest, EveryTruncationMatchesPerField) {
  TruncationDifferential<DirectedGraph>(40, 1);
  TruncationDifferential<DirectedGraph>((1 << 20) + 5, 2);
  TruncationDifferential<UndirectedGraph>(40, 3);
}

// One field of one edge changed to a value the reader must refuse (or, for
// denormals and -0.0, accept), at edges in the word-decoded body and in
// the tail, for both graph kinds.
template <typename GraphT>
void FieldMutationDifferential(int n) {
  Rng rng(static_cast<uint64_t>(n));
  const RawPayload base =
      RawOf(CodecGraph<GraphT>(n, PowerIds(n), 12, rng));
  const double weights[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            -1.0,
                            -std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::denorm_min(),
                            -0.0};
  const uint64_t un = static_cast<uint64_t>(n);
  for (size_t at = 0; at < base.edges.size(); ++at) {
    const std::string where =
        "n=" + std::to_string(n) + " edge " + std::to_string(at);
    const auto check = [&](RawPayload raw, const std::string& what) {
      ExpectParsersAgree<GraphT>(WriteRawPayload(raw), where + " " + what);
    };
    // n and n + 1, and values whose codes (up to 81 bits) outgrow a
    // word at some or every bit offset; the message prints each value.
    for (const uint64_t bad : {un, un + 1, (uint64_t{1} << 29) + 12345,
                               (uint64_t{1} << 31) - 2, uint64_t{1} << 40}) {
      RawPayload raw = base;
      raw.edges[at].src = bad;
      check(raw, "src " + std::to_string(bad));
      raw = base;
      raw.edges[at].dst = bad;
      check(raw, "dst " + std::to_string(bad));
    }
    RawPayload loop = base;
    loop.edges[at].dst = loop.edges[at].src;
    check(loop, "self-loop");
    for (const double weight : weights) {
      RawPayload raw = base;
      raw.edges[at].weight = weight;
      check(raw, "weight " + std::to_string(weight));
    }
    for (const int zeros : {63, 64, 65}) {
      RawPayload raw = base;
      raw.extra_zeros = zeros;
      raw.zeros_edge = at;
      check(raw, std::to_string(zeros) + "-zero gamma prefix");
    }
  }
  // Declared edge counts off by one either way.
  for (const int delta : {-1, 1}) {
    RawPayload raw = base;
    raw.m = static_cast<uint64_t>(static_cast<int64_t>(raw.m) + delta);
    ExpectParsersAgree<GraphT>(WriteRawPayload(raw),
                               "m off by " + std::to_string(delta));
  }
}

TEST(SerializationCodecDifferentialTest, FieldMutationsMatchPerField) {
  for (const int n : {2, 3, 200, (1 << 15) + 1, 1 << 28}) {
    FieldMutationDifferential<DirectedGraph>(n);
    FieldMutationDifferential<UndirectedGraph>(n);
  }
}

}  // namespace
}  // namespace dcs
