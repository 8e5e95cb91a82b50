// RPC request/response wire format for the serving tier (DESIGN.md §14).
//
// One RPC body is one Message moved by serve/transport. The body is the
// shared checksummed envelope (util/envelope.h) under magic 0xA9C5, with
// the RpcKind as its kind; the decoder adds a kind-range check and requires
// the payload to end exactly at the message's bit count. The transport
// frame carries no checksum of its own, so this envelope is the only
// integrity check on the socket and every body is treated as hostile:
// every field is Try-read, every count capped against the remaining stream
// before allocation, and any flip or truncation decodes to kDataLoss.
// CRC32C catches every burst of up to 32 flipped bits and every pair of
// flipped bits in a body under 2^31 bits — corruption_test flips every bit
// of encoded requests and responses, and every pair of bits of a query
// body's checksum and payload, and asserts non-OK.
//
// RPCs:
//   kPing          — health check; response carries the worker's token.
//   kRegisterGraph — ship a DirectedGraph: the payload *is* the graph's
//                    serialization envelope, SerializeDirectedGraph's bytes
//                    exactly. The worker persists those bytes as received,
//                    registers the graph, and responds with the
//                    service-assigned object id.
//   kQueryBatch    — a batch of cut queries (object id + packed sides);
//                    response carries one double per query.
//   kReattach      — claim an object a *previous* worker incarnation
//                    persisted to its disk store: carries the object id,
//                    vertex count, and the CRC32C of the graph's
//                    serialized envelope. A store-backed worker that warm-
//                    loaded a matching object answers OK (the id is live
//                    again); anything else is kNotFound and the client
//                    falls back to a full kRegisterGraph. This is what
//                    turns token-mismatch repair into a fast local reload
//                    instead of re-sending whole sketches.
//
// Every response carries the worker's 64-bit instance token, drawn once at
// process start. A client that registered an object under token T and
// later sees token T' != T knows the worker was restarted and its
// registrations died with it (the replication layer re-registers — the
// repair path).

#ifndef DCS_SERVE_WIRE_H_
#define DCS_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/message.h"
#include "graph/digraph.h"
#include "graph/types.h"
#include "util/status.h"

namespace dcs {

// Discriminates RPC bodies. Stable wire values.
enum class RpcKind : uint8_t {
  kPing = 1,
  kRegisterGraph = 2,
  kQueryBatch = 3,
  kResponse = 4,  // every response body, regardless of request kind
  kReattach = 5,
};

// Stable lowercase name ("ping", ...) for diagnostics and metrics.
const char* RpcKindName(RpcKind kind);

struct RpcRequest;

// A graph to register, bound to its serialization envelope: the bytes
// SerializeDirectedGraph writes for it, their bit count, and their CRC32C
// (GraphEnvelopeChecksum). A register request carries its graph in this
// form, so EncodeRpcRequest seals the RPC envelope with that checksum
// instead of hashing the bytes again, and the worker stores and checksums
// the bytes that crossed the wire instead of serializing the graph again.
// There are two ways to make one: from a graph, which serializes it once,
// and DecodeRpcRequest, which moves in the envelope it received after both
// checksums (RPC and graph) passed and the graph parsed to its last bit.
// The encoding is canonical (unique gamma codes, raw weight bits, trailing
// bits rejected), so both give identical bytes for the same graph.
class EnvelopedGraph {
 public:
  // Implicit, so `request.graph = graph` builds the envelope where the
  // request is built.
  EnvelopedGraph(DirectedGraph graph);  // NOLINT

  const DirectedGraph& graph() const { return graph_; }
  // Padded envelope bytes (final partial byte zero), as BitWriter packs.
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  int64_t bit_count() const { return bit_count_; }
  uint32_t checksum() const { return checksum_; }

 private:
  friend StatusOr<RpcRequest> DecodeRpcRequest(const Message& message);
  EnvelopedGraph(DirectedGraph graph, std::vector<uint8_t> bytes,
                 int64_t bit_count, uint32_t checksum);

  DirectedGraph graph_;
  std::vector<uint8_t> bytes_;
  int64_t bit_count_ = 0;
  uint32_t checksum_ = 0;
};

struct RpcRequest {
  RpcKind kind = RpcKind::kPing;
  // kQueryBatch/kReattach: the worker-local object id returned by
  // kRegisterGraph.
  int64_t object_id = 0;
  // kQueryBatch/kReattach: vertex count every side must match (validated
  // against the registered object on the worker).
  int num_vertices = 0;
  // kReattach: CRC32C over the graph's serialized envelope bytes; the
  // worker only reattaches when its warm-loaded object matches.
  uint32_t graph_checksum = 0;
  // kQueryBatch: one packed side per query.
  std::vector<VertexSet> sides;
  // kRegisterGraph: the graph to register, with its envelope.
  std::optional<EnvelopedGraph> graph;
};

// A kRegisterGraph request for `graph`, serialized once.
RpcRequest RegisterGraphRequest(const DirectedGraph& graph);

struct RpcResponse {
  // The worker's application-level verdict. Distinct from transport
  // failures: this Status arrived *successfully* over the wire.
  Status status;
  // The responding worker's instance token (all kinds).
  uint64_t server_token = 0;
  // kRegisterGraph: the assigned object id.
  int64_t object_id = 0;
  // kQueryBatch: one answer per query, in request order.
  std::vector<double> values;
};

// Encoding never fails (inputs are trusted, by-construction values).
Message EncodeRpcRequest(const RpcRequest& request);
Message EncodeRpcResponse(const RpcResponse& response);

// Decoding treats the message as hostile: kDataLoss on any envelope or
// field violation, never a crash, hang, or unbounded allocation.
StatusOr<RpcRequest> DecodeRpcRequest(const Message& message);
StatusOr<RpcResponse> DecodeRpcResponse(const Message& message);

// CRC32C over the graph's serialized envelope bytes. Serialization is
// canonical, so client and worker computing this over "the same graph"
// always agree — the identity check behind kReattach. It equals the
// checksum a kRegisterGraph RPC envelope carries over its payload, which
// is how the worker learns it without hashing the graph again.
uint32_t GraphEnvelopeChecksum(const DirectedGraph& graph);

}  // namespace dcs

#endif  // DCS_SERVE_WIRE_H_
