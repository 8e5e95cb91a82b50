// Bit-exact serialization of graphs and vertex-indexed arrays.
//
// Sketch sizes in this library are reported in *bits of serialized
// representation*, because the paper's lower bounds are stated in bits.
//
// Serialized artifacts are exactly the things meant to cross machine
// boundaries (sketches shipped Alice→Bob), so deserialization treats the
// bytes as hostile: every top-level object is wrapped in the shared
// checksummed envelope (util/envelope.h) under magic 0xD5CE, with the
// StreamKind as its kind, and the payload is validated field by field
// (counts capped by the remaining stream length before any allocation,
// endpoints range-checked, weights finite and nonnegative). Deserializers
// return StatusOr and never abort, hang, or make an unbounded allocation on
// corrupted input; any bit flip or truncation is caught by the envelope
// checks.
//
// Payload format for graphs (inside the envelope): Elias-gamma vertex and
// edge counts, then per edge Elias-gamma endpoints and a raw IEEE double
// weight. The graph codec packs and decodes edges a word at a time
// (DESIGN.md §9); its bytes, results and errors are those of one BitWriter
// or BitReader call per field. Double vectors are headerless *fragments*
// (count + raw 64-bit values) meant to be embedded inside an enclosing
// envelope's payload.

#ifndef DCS_SKETCH_SERIALIZATION_H_
#define DCS_SKETCH_SERIALIZATION_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/ugraph.h"
#include "util/bitio.h"
#include "util/envelope.h"
#include "util/status.h"

namespace dcs {

// Discriminates the envelope's payload. Stable wire values.
enum class StreamKind : uint8_t {
  kDirectedGraph = 1,
  kUndirectedGraph = 2,
  kForEachSketch = 3,
  kForAllSparsifier = 4,
  kDirectedForEachSketch = 5,
  kDirectedForAllSketch = 6,
  kEdgeStream = 7,  // replayable binary edge-update stream (stream/binary_stream.h)
  kCutBalanceSparsifier = 8,  // sketch/cut_balance_sparsifier.h
  // 9 is reserved: it named the older store layout's segment index footer.
  // Never reuse it; the store rejects it.
  kCacheSnapshot = 10,  // warm-tier cache dump (store/cache_snapshot.h)
};

// Stable lowercase name of a stream kind ("directed_graph", ...); used in
// metric names (`serialization.payload_bits.<name>`) and diagnostics.
const char* StreamKindName(StreamKind kind);

// Wraps `payload` in an envelope of the given kind and appends it to `out`.
void WriteEnvelope(StreamKind kind, const BitWriter& payload, BitWriter& out);

// Reads one envelope of the expected kind from `reader`: verifies magic,
// version, kind, payload length (against the remaining stream) and
// checksum, and returns the payload bits. kDataLoss on any mismatch.
StatusOr<EnvelopePayload> ReadEnvelopePayload(StreamKind expected_kind,
                                              BitReader& reader);

// Serializes a directed graph (enveloped).
void SerializeDirectedGraph(const DirectedGraph& graph, BitWriter& writer);
StatusOr<DirectedGraph> DeserializeDirectedGraph(BitReader& reader);

// Serializes an undirected graph (enveloped).
void SerializeUndirectedGraph(const UndirectedGraph& graph,
                              BitWriter& writer);
StatusOr<UndirectedGraph> DeserializeUndirectedGraph(BitReader& reader);

// Serializes a vector of doubles (headerless fragment: count + raw 64-bit
// values). Deserialization caps the count against the remaining bits and
// rejects non-finite entries (the library only serializes finite arrays:
// imbalances, degree tables).
void SerializeDoubleVector(const std::vector<double>& values,
                           BitWriter& writer);
StatusOr<std::vector<double>> DeserializeDoubleVector(BitReader& reader);

// Serialized sizes in bits (envelope included).
int64_t SerializedSizeInBits(const DirectedGraph& graph);
int64_t SerializedSizeInBits(const UndirectedGraph& graph);

}  // namespace dcs

#endif  // DCS_SKETCH_SERIALIZATION_H_
