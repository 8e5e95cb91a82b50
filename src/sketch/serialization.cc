#include "sketch/serialization.h"

#include <bit>
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

// Records the envelope metrics and seals `payload` (BitWriter layout) as a
// serialization envelope of `kind` onto `out`.
void SealPayload(StreamKind kind, const std::vector<uint8_t>& payload,
                 int64_t payload_bits, BitWriter& out) {
  DCS_METRIC_INC("serialization.envelope.written");
  metrics::RecordValue(NamesOf(kind).payload_bits_metric, payload_bits);
  AppendEnvelope(kEnvelopeMagic, static_cast<uint64_t>(kind), payload,
                 payload_bits, out);
}

// Packs fields into whole 64-bit words at `out`, LSB first, exactly as
// BitWriter lays them out. `out` must have room for every word the fields
// touch, the final partial one included.
class WordPacker {
 public:
  explicit WordPacker(uint8_t* out) : out_(out) {}

  // Appends the low `width` bits of `value` (width in [1, 64]; the bits of
  // `value` above `width` must be zero).
  void Put(uint64_t value, int width) {
    accumulator_ |= value << fill_;
    fill_ += width;
    if (fill_ < 64) return;
    StoreLe64(out_, accumulator_);
    out_ += 8;
    fill_ -= 64;
    // What is left of `value` opens the next word.
    accumulator_ = fill_ == 0 ? 0 : value >> (width - fill_);
  }

  // Appends the Elias-gamma code of `value` as one field. Every value a
  // graph payload holds (a vertex id, n, or m) is below 2^32 - 1, so its
  // code fits a word.
  void PutGamma(uint64_t value) {
    const int log = EliasGammaLog(value);
    DCS_CHECK_LE(log, 31);
    Put(EliasGammaWord(value, log), 2 * log + 1);
  }

  void PutDouble(double value) { Put(std::bit_cast<uint64_t>(value), 64); }

  // Stores the final partial word (its bits past the last field zero).
  void Finish() {
    if (fill_ > 0) StoreLe64(out_, accumulator_);
  }

 private:
  uint8_t* out_;
  uint64_t accumulator_ = 0;
  int fill_ = 0;  // bits of accumulator_ in use, in [0, 64)
};

int GammaBits(uint64_t value) { return 2 * EliasGammaLog(value) + 1; }

// Serializes the count/edge-list payload shared by both graph kinds and
// seals it. One pass sizes the payload exactly; a second packs it a word at
// a time. The bytes equal per-field WriteEliasGamma/WriteDouble calls.
template <typename GraphT>
void SerializeGraph(StreamKind kind, const GraphT& graph, BitWriter& out) {
  const uint64_t n = static_cast<uint64_t>(graph.num_vertices());
  const uint64_t m = static_cast<uint64_t>(graph.num_edges());
  int64_t bits = GammaBits(n) + GammaBits(m);
  for (const Edge& e : graph.edges()) {
    bits += GammaBits(static_cast<uint64_t>(e.src)) +
            GammaBits(static_cast<uint64_t>(e.dst)) + 64;
  }
  std::vector<uint8_t> payload(static_cast<size_t>((bits + 63) / 64 * 8));
  WordPacker packer(payload.data());
  packer.PutGamma(n);
  packer.PutGamma(m);
  for (const Edge& e : graph.edges()) {
    packer.PutGamma(static_cast<uint64_t>(e.src));
    packer.PutGamma(static_cast<uint64_t>(e.dst));
    packer.PutDouble(e.weight);
  }
  packer.Finish();
  payload.resize(static_cast<size_t>((bits + 7) / 8));
  SealPayload(kind, payload, bits, out);
}

// Decodes edge (src, dst, weight) at bit `pos` of `data`, which holds at
// least kWordEdgeBytes bytes from pos's byte, advancing `pos` past it.
// Both endpoint codes come from the one word loaded at pos's byte, and one
// reversal of that word yields both: reversed, src + 1 ends where src's
// code ends, and dst + 1 where dst's does, above dst's zeros. False, with
// `pos` untouched, when the two codes do not lie wholly inside that word's
// 64 - pos % 8 stream bits (a window of zeros, or codes that long); they
// always do below 2^14 vertices.
bool EdgeFromWord(const uint8_t* data, int64_t& pos, uint64_t& src,
                  uint64_t& dst, double& weight) {
  const int shift = static_cast<int>(pos & 7);
  const uint64_t window = LoadLe64(data + (pos >> 3)) >> shift;
  if (window == 0) return false;
  const int src_bits = 2 * __builtin_ctzll(window) + 1;
  if (src_bits > 64 - shift) return false;
  const uint64_t rest = window >> src_bits;  // src_bits is odd, so <= 63
  if (rest == 0) return false;
  const int dst_log = __builtin_ctzll(rest);
  const int bits = src_bits + 2 * dst_log + 1;
  if (bits > 64 - shift) return false;
  const uint64_t reversed = ReverseLowBits(window, 64);
  src = (reversed >> (64 - src_bits)) - 1;
  dst = ((reversed >> (64 - bits)) & LowMask(dst_log + 1)) - 1;
  const int64_t at = pos + bits;
  weight = std::bit_cast<double>(
      LoadShiftedLe64(data + (at >> 3), static_cast<int>(at & 7)));
  pos = at + 64;
  return true;
}

// Bytes EdgeFromWord reads from its first bit's byte: the codes end inside
// the word loaded there, so the weight's nine-byte load starts at most 8
// bytes on.
constexpr int64_t kWordEdgeBytes = 17;

// Parses the count/edge-list payload shared by both graph kinds. The
// payload already passed the envelope checksum, so failures here indicate a
// stream written by a buggy or hostile producer rather than corruption in
// transit — still a non-OK Status, never an abort.
//
// Edges decode straight from the payload's words while at least
// kWordEdgeBytes bytes remain; an edge whose codes do not fit one word
// (EdgeFromWord), and every edge in the payload's tail, goes through the
// reader's Try reads instead. Both paths consume the same bits and yield
// the same values, so every result and error is the per-field decoder's.
template <typename GraphT>
StatusOr<GraphT> ParseGraphPayload(const EnvelopePayload& payload) {
  BitReader reader(payload.bytes);
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
  const uint8_t* data = payload.bytes.data();
  // Edges starting in a byte at or below this one decode from words.
  const int64_t last_word_byte =
      static_cast<int64_t>(payload.bytes.size()) - kWordEdgeBytes;
  int64_t pos = reader.position();
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t src = 0;
    uint64_t dst = 0;
    double weight = 0;
    if ((pos >> 3) > last_word_byte ||
        !EdgeFromWord(data, pos, src, dst, weight)) {
      reader.Seek(pos);
      DCS_ASSIGN_OR_RETURN(src, reader.TryReadEliasGamma());
      DCS_ASSIGN_OR_RETURN(dst, reader.TryReadEliasGamma());
      DCS_ASSIGN_OR_RETURN(weight, reader.TryReadDouble());
      pos = reader.position();
    }
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
  if (pos != payload.bit_count) {
    return DataLossError("graph payload has trailing bits");
  }
  return graph;
}

template <typename GraphT>
StatusOr<GraphT> DeserializeGraph(StreamKind kind, BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(const EnvelopePayload payload,
                       ReadEnvelopePayload(kind, reader));
  return ParseGraphPayload<GraphT>(payload);
}

}  // namespace

const char* StreamKindName(StreamKind kind) { return NamesOf(kind).name; }

void WriteEnvelope(StreamKind kind, const BitWriter& payload, BitWriter& out) {
  SealPayload(kind, payload.bytes(), payload.bit_count(), out);
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
  SerializeGraph(StreamKind::kDirectedGraph, graph, writer);
}

StatusOr<DirectedGraph> DeserializeDirectedGraph(BitReader& reader) {
  return DeserializeGraph<DirectedGraph>(StreamKind::kDirectedGraph, reader);
}

void SerializeUndirectedGraph(const UndirectedGraph& graph,
                              BitWriter& writer) {
  SerializeGraph(StreamKind::kUndirectedGraph, graph, writer);
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
