#include "sketch/serialization.h"

#include <cmath>
#include <cstddef>
#include <iterator>
#include <string>

#include "util/metrics.h"

namespace dcs {
namespace {

// Stable name and payload-bits metric name per StreamKind wire value
// (row 0 stands for unknown values). The metric names are precomputed so
// the DCS_METRICS_ENABLED=0 configuration does no per-envelope string
// assembly (metrics.h: dynamic names must be long-lived constants).
struct KindNames {
  const char* name;
  const char* payload_bits_metric;
};
constexpr KindNames kKindNames[] = {
    {"unknown", "serialization.payload_bits.unknown"},
    {"directed_graph", "serialization.payload_bits.directed_graph"},
    {"undirected_graph", "serialization.payload_bits.undirected_graph"},
    {"foreach_sketch", "serialization.payload_bits.foreach_sketch"},
    {"forall_sparsifier", "serialization.payload_bits.forall_sparsifier"},
    {"directed_foreach_sketch",
     "serialization.payload_bits.directed_foreach_sketch"},
    {"directed_forall_sketch",
     "serialization.payload_bits.directed_forall_sketch"},
    {"edge_stream", "serialization.payload_bits.edge_stream"},
    {"cut_balance_sparsifier",
     "serialization.payload_bits.cut_balance_sparsifier"},
    {"unknown", "serialization.payload_bits.unknown"},  // 9: reserved
    {"cache_snapshot", "serialization.payload_bits.cache_snapshot"},
};
static_assert(std::size(kKindNames) ==
              static_cast<size_t>(StreamKind::kCacheSnapshot) + 1);

const KindNames& NamesOf(StreamKind kind) {
  const size_t value = static_cast<size_t>(kind);
  return kKindNames[value < std::size(kKindNames) ? value : 0];
}

constexpr uint64_t kEnvelopeMagic = 0xD5CE;  // "DCS envelope"

// Largest vertex count a stream may declare; matches the graph_io cap.
constexpr uint64_t kMaxVertices = uint64_t{1} << 28;

// Smallest possible serialized edge: two 1-bit Elias-gamma endpoints plus a
// 64-bit weight. Declared edge counts are capped against remaining/66.
constexpr int64_t kMinEdgeBits = 66;

template <typename GraphT>
void SerializeEdges(const GraphT& graph, BitWriter& writer) {
  writer.WriteEliasGamma(static_cast<uint64_t>(graph.num_vertices()));
  writer.WriteEliasGamma(static_cast<uint64_t>(graph.num_edges()));
  for (const Edge& e : graph.edges()) {
    writer.WriteEliasGamma(static_cast<uint64_t>(e.src));
    writer.WriteEliasGamma(static_cast<uint64_t>(e.dst));
    writer.WriteDouble(e.weight);
  }
}

// Parses the count/edge-list payload shared by both graph kinds. The
// payload already passed the envelope checksum, so failures here indicate a
// stream written by a buggy or hostile producer rather than corruption in
// transit — still a non-OK Status, never an abort.
template <typename GraphT>
StatusOr<GraphT> ParseGraphPayload(BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(const uint64_t n, reader.TryReadEliasGamma());
  if (n > kMaxVertices) {
    return InvalidArgumentError("graph stream declares " + std::to_string(n) +
                                " vertices (cap " +
                                std::to_string(kMaxVertices) + ")");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t m, reader.TryReadEliasGamma());
  const uint64_t max_edges =
      static_cast<uint64_t>(reader.RemainingBits() / kMinEdgeBits);
  if (m > max_edges) {
    return DataLossError("graph stream declares " + std::to_string(m) +
                         " edges but only " +
                         std::to_string(reader.RemainingBits()) +
                         " payload bits remain");
  }
  GraphT graph(static_cast<int>(n));
  // Safe to reserve: the cap above holds a hostile count to remaining/66
  // edges, about twice the payload's size in bytes.
  graph.ReserveEdges(static_cast<int64_t>(m));
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
  return graph;
}

template <typename GraphT>
StatusOr<GraphT> DeserializeGraph(StreamKind kind, BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(const EnvelopePayload payload,
                       ReadEnvelopePayload(kind, reader));
  BitReader payload_reader(payload.bytes);
  DCS_ASSIGN_OR_RETURN(GraphT graph, ParseGraphPayload<GraphT>(payload_reader));
  if (payload_reader.position() != payload.bit_count) {
    return DataLossError("graph payload has trailing bits");
  }
  return graph;
}

}  // namespace

const char* StreamKindName(StreamKind kind) { return NamesOf(kind).name; }

void WriteEnvelope(StreamKind kind, const BitWriter& payload, BitWriter& out) {
  DCS_METRIC_INC("serialization.envelope.written");
  metrics::RecordValue(NamesOf(kind).payload_bits_metric,
                       payload.bit_count());
  AppendEnvelope(kEnvelopeMagic, static_cast<uint64_t>(kind), payload.bytes(),
                 payload.bit_count(), out);
}

StatusOr<EnvelopePayload> ReadEnvelopePayload(StreamKind expected_kind,
                                              BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(EnvelopePayload payload,
                       ReadEnvelope(kEnvelopeMagic, reader));
  if (payload.kind != static_cast<uint64_t>(expected_kind)) {
    return DataLossError(
        "stream kind mismatch: expected " +
        std::to_string(static_cast<uint64_t>(expected_kind)) + ", found " +
        std::to_string(payload.kind));
  }
  DCS_METRIC_INC("serialization.envelope.read");
  return payload;
}

void SerializeDirectedGraph(const DirectedGraph& graph, BitWriter& writer) {
  BitWriter payload;
  SerializeEdges(graph, payload);
  WriteEnvelope(StreamKind::kDirectedGraph, payload, writer);
}

StatusOr<DirectedGraph> DeserializeDirectedGraph(BitReader& reader) {
  return DeserializeGraph<DirectedGraph>(StreamKind::kDirectedGraph, reader);
}

void SerializeUndirectedGraph(const UndirectedGraph& graph,
                              BitWriter& writer) {
  BitWriter payload;
  SerializeEdges(graph, payload);
  WriteEnvelope(StreamKind::kUndirectedGraph, payload, writer);
}

StatusOr<UndirectedGraph> DeserializeUndirectedGraph(BitReader& reader) {
  return DeserializeGraph<UndirectedGraph>(StreamKind::kUndirectedGraph,
                                           reader);
}

void SerializeDoubleVector(const std::vector<double>& values,
                           BitWriter& writer) {
  writer.WriteEliasGamma(values.size());
  for (double v : values) writer.WriteDouble(v);
}

StatusOr<std::vector<double>> DeserializeDoubleVector(BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(const uint64_t count, reader.TryReadEliasGamma());
  if (count > static_cast<uint64_t>(reader.RemainingBits() / 64)) {
    return DataLossError("double vector declares " + std::to_string(count) +
                         " entries but only " +
                         std::to_string(reader.RemainingBits()) +
                         " bits remain");
  }
  std::vector<double> values(static_cast<size_t>(count));
  for (size_t i = 0; i < values.size(); ++i) {
    DCS_ASSIGN_OR_RETURN(values[i], reader.TryReadDouble());
    if (!std::isfinite(values[i])) {
      return InvalidArgumentError("double vector entry " + std::to_string(i) +
                                  " is not finite");
    }
  }
  return values;
}

int64_t SerializedSizeInBits(const DirectedGraph& graph) {
  BitWriter writer;
  SerializeDirectedGraph(graph, writer);
  return writer.bit_count();
}

int64_t SerializedSizeInBits(const UndirectedGraph& graph) {
  BitWriter writer;
  SerializeUndirectedGraph(graph, writer);
  return writer.bit_count();
}

}  // namespace dcs
