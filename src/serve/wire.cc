#include "serve/wire.h"

#include <cmath>
#include <string>
#include <utility>

#include "sketch/serialization.h"
#include "util/bitio.h"
#include "util/checksum.h"
#include "util/envelope.h"

namespace dcs {
namespace {

// RPC envelope magic (util/envelope.h), distinct from the serialization
// envelope (0xD5CE), the channel frame (0xFA5C) and the segment record
// (0x5E62): a body misfed to the wrong parser dies at the first header
// field.
constexpr uint64_t kRpcMagic = 0xA9C5;

// Caps enforced before any allocation driven by a header-declared count.
constexpr uint64_t kMaxBatchQueries = uint64_t{1} << 20;
constexpr uint64_t kMaxStatusMessageBytes = 4096;
// Matches the serialization layer's vertex cap, and keeps every declared
// vertex count well inside int.
constexpr uint64_t kMaxVertices = uint64_t{1} << 28;

Message SealRpc(RpcKind kind, const std::vector<uint8_t>& payload,
               int64_t payload_bits) {
  BitWriter out;
  AppendEnvelope(kRpcMagic, static_cast<uint64_t>(kind), payload,
                 payload_bits, out);
  return SealMessage(out);
}

// A register body is the graph's envelope, whose CRC32C the EnvelopedGraph
// already holds: the RPC envelope is sealed with it instead of hashing the
// same bytes again.
Message SealRegisterRpc(const EnvelopedGraph& graph) {
  BitWriter out;
  AppendEnvelope(kRpcMagic, static_cast<uint64_t>(RpcKind::kRegisterGraph),
                 graph.bytes(), graph.bit_count(), graph.checksum(), out);
  return SealMessage(out);
}

// Validates the RPC envelope and extracts the checksummed payload: the
// shared envelope checks, a known kind, and a payload that ends exactly at
// the message's *declared* bit count (not the padded byte buffer).
StatusOr<EnvelopePayload> OpenRpc(const Message& message) {
  BitReader reader(message.bytes);
  DCS_ASSIGN_OR_RETURN(EnvelopePayload opened,
                       ReadEnvelope(kRpcMagic, reader));
  if (opened.kind < static_cast<uint64_t>(RpcKind::kPing) ||
      opened.kind > static_cast<uint64_t>(RpcKind::kReattach)) {
    return DataLossError("unknown rpc kind " + std::to_string(opened.kind));
  }
  if (reader.position() != message.bit_count) {
    return DataLossError("rpc payload length does not match the message");
  }
  return opened;
}

// A query side travels as one bit per vertex, in vertex order; packed, it is
// eight vertices to a byte, LSB first, as BitWriter lays the bits out.
void PackSide(const VertexSet& side, std::vector<uint8_t>& packed) {
  packed.resize((side.size() + 7) / 8);
  for (size_t byte = 0; byte < packed.size(); ++byte) {
    packed[byte] = PackMembers8(side, 8 * byte);
  }
}

VertexSet UnpackSide(const std::vector<uint8_t>& packed, size_t num_vertices) {
  VertexSet side(num_vertices);
  for (size_t first = 0; first < num_vertices; first += 8) {
    UnpackMembers8(packed[first / 8], first, side);
  }
  return side;
}

// The payload parsers share a tail check: every declared payload bit must
// be consumed (a short parse means the body was spliced or truncated).
Status CheckFullyConsumed(const BitReader& reader, int64_t payload_bits) {
  if (reader.position() != payload_bits) {
    return DataLossError("rpc payload has trailing bits");
  }
  return OkStatus();
}

}  // namespace

EnvelopedGraph::EnvelopedGraph(DirectedGraph graph) : graph_(std::move(graph)) {
  BitWriter writer;
  SerializeDirectedGraph(graph_, writer);
  bit_count_ = writer.bit_count();
  checksum_ = Crc32c(writer.bytes());
  bytes_ = writer.bytes();
}

EnvelopedGraph::EnvelopedGraph(DirectedGraph graph, std::vector<uint8_t> bytes,
                               int64_t bit_count, uint32_t checksum)
    : graph_(std::move(graph)),
      bytes_(std::move(bytes)),
      bit_count_(bit_count),
      checksum_(checksum) {}

RpcRequest RegisterGraphRequest(const DirectedGraph& graph) {
  RpcRequest request;
  request.kind = RpcKind::kRegisterGraph;
  request.graph = graph;
  return request;
}

const char* RpcKindName(RpcKind kind) {
  switch (kind) {
    case RpcKind::kPing:
      return "ping";
    case RpcKind::kRegisterGraph:
      return "register_graph";
    case RpcKind::kQueryBatch:
      return "query_batch";
    case RpcKind::kResponse:
      return "response";
    case RpcKind::kReattach:
      return "reattach";
  }
  return "unknown";
}

Message EncodeRpcRequest(const RpcRequest& request) {
  BitWriter payload;
  switch (request.kind) {
    case RpcKind::kPing:
      break;
    case RpcKind::kRegisterGraph:
      // The payload is the graph's envelope, serialized (and hashed) when
      // the request was built.
      DCS_CHECK(request.graph.has_value());
      return SealRegisterRpc(*request.graph);
    case RpcKind::kQueryBatch: {
      DCS_CHECK_GE(request.object_id, 0);
      DCS_CHECK_GE(request.num_vertices, 1);
      payload.WriteEliasGamma(static_cast<uint64_t>(request.object_id));
      payload.WriteEliasGamma(static_cast<uint64_t>(request.num_vertices));
      payload.WriteEliasGamma(static_cast<uint64_t>(request.sides.size()));
      std::vector<uint8_t> packed;
      for (const VertexSet& side : request.sides) {
        DCS_CHECK_EQ(static_cast<int>(side.size()), request.num_vertices);
        PackSide(side, packed);
        payload.AppendBits(packed, request.num_vertices);
      }
      break;
    }
    case RpcKind::kReattach:
      DCS_CHECK_GE(request.object_id, 0);
      DCS_CHECK_GE(request.num_vertices, 1);
      payload.WriteEliasGamma(static_cast<uint64_t>(request.object_id));
      payload.WriteEliasGamma(static_cast<uint64_t>(request.num_vertices));
      payload.WriteBits(request.graph_checksum, 32);
      break;
    case RpcKind::kResponse:
      DCS_CHECK(false);  // responses go through EncodeRpcResponse
      break;
  }
  return SealRpc(request.kind, payload.bytes(), payload.bit_count());
}

StatusOr<RpcRequest> DecodeRpcRequest(const Message& message) {
  DCS_ASSIGN_OR_RETURN(EnvelopePayload opened, OpenRpc(message));
  BitReader reader(opened.bytes);
  RpcRequest request;
  request.kind = static_cast<RpcKind>(opened.kind);
  switch (request.kind) {
    case RpcKind::kResponse:
      return DataLossError("rpc body is a response, not a request");
    case RpcKind::kPing:
      break;
    case RpcKind::kRegisterGraph: {
      DCS_ASSIGN_OR_RETURN(DirectedGraph graph,
                           DeserializeDirectedGraph(reader));
      DCS_RETURN_IF_ERROR(CheckFullyConsumed(reader, opened.bit_count));
      // The payload parsed to its last bit as exactly one graph envelope,
      // so it is SerializeDirectedGraph(graph), and the RPC checksum just
      // verified over it is GraphEnvelopeChecksum(graph).
      request.graph = EnvelopedGraph(std::move(graph), std::move(opened.bytes),
                                     opened.bit_count, opened.checksum);
      return request;
    }
    case RpcKind::kQueryBatch: {
      DCS_ASSIGN_OR_RETURN(const uint64_t object_id,
                           reader.TryReadEliasGamma());
      if (object_id > (uint64_t{1} << 32)) {
        return DataLossError("rpc query batch object id out of range");
      }
      DCS_ASSIGN_OR_RETURN(const uint64_t num_vertices,
                           reader.TryReadEliasGamma());
      DCS_ASSIGN_OR_RETURN(const uint64_t num_sides,
                           reader.TryReadEliasGamma());
      if (num_vertices < 1 || num_vertices > kMaxVertices ||
          num_vertices > static_cast<uint64_t>(reader.RemainingBits())) {
        return DataLossError("rpc query batch vertex count out of range");
      }
      if (num_sides > kMaxBatchQueries ||
          num_sides * num_vertices >
              static_cast<uint64_t>(reader.RemainingBits())) {
        return DataLossError(
            "rpc query batch declares more sides than the stream holds");
      }
      request.object_id = static_cast<int64_t>(object_id);
      request.num_vertices = static_cast<int>(num_vertices);
      request.sides.reserve(static_cast<size_t>(num_sides));
      std::vector<uint8_t> packed;
      for (uint64_t q = 0; q < num_sides; ++q) {
        DCS_RETURN_IF_ERROR(reader.TryReadBitsInto(
            static_cast<int64_t>(num_vertices), packed));
        request.sides.push_back(
            UnpackSide(packed, static_cast<size_t>(num_vertices)));
      }
      break;
    }
    case RpcKind::kReattach: {
      DCS_ASSIGN_OR_RETURN(const uint64_t object_id,
                           reader.TryReadEliasGamma());
      if (object_id > (uint64_t{1} << 32)) {
        return DataLossError("rpc reattach object id out of range");
      }
      DCS_ASSIGN_OR_RETURN(const uint64_t num_vertices,
                           reader.TryReadEliasGamma());
      if (num_vertices < 1 || num_vertices > kMaxVertices) {
        return DataLossError("rpc reattach vertex count out of range");
      }
      DCS_ASSIGN_OR_RETURN(const uint64_t checksum, reader.TryReadBits(32));
      request.object_id = static_cast<int64_t>(object_id);
      request.num_vertices = static_cast<int>(num_vertices);
      request.graph_checksum = static_cast<uint32_t>(checksum);
      break;
    }
  }
  DCS_RETURN_IF_ERROR(CheckFullyConsumed(reader, opened.bit_count));
  return request;
}

Message EncodeRpcResponse(const RpcResponse& response) {
  BitWriter payload;
  payload.WriteBits(static_cast<uint64_t>(response.status.code()), 8);
  const std::string& text = response.status.message();
  DCS_CHECK_LE(text.size(), kMaxStatusMessageBytes);
  payload.WriteEliasGamma(text.size());
  for (char c : text) {
    payload.WriteBits(static_cast<uint8_t>(c), 8);
  }
  payload.WriteBits(response.server_token, 64);
  DCS_CHECK_GE(response.object_id, 0);
  payload.WriteEliasGamma(static_cast<uint64_t>(response.object_id));
  payload.WriteEliasGamma(response.values.size());
  for (double value : response.values) payload.WriteDouble(value);
  return SealRpc(RpcKind::kResponse, payload.bytes(), payload.bit_count());
}

uint32_t GraphEnvelopeChecksum(const DirectedGraph& graph) {
  BitWriter writer;
  SerializeDirectedGraph(graph, writer);
  return Crc32c(writer.bytes());
}

StatusOr<RpcResponse> DecodeRpcResponse(const Message& message) {
  DCS_ASSIGN_OR_RETURN(const EnvelopePayload opened, OpenRpc(message));
  if (opened.kind != static_cast<uint64_t>(RpcKind::kResponse)) {
    return DataLossError("rpc body is a request, not a response");
  }
  BitReader reader(opened.bytes);
  RpcResponse response;
  DCS_ASSIGN_OR_RETURN(const uint64_t code, reader.TryReadBits(8));
  if (code > static_cast<uint64_t>(StatusCode::kResourceExhausted)) {
    return DataLossError("rpc response status code out of range");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t text_bytes, reader.TryReadEliasGamma());
  if (text_bytes > kMaxStatusMessageBytes ||
      text_bytes * 8 > static_cast<uint64_t>(reader.RemainingBits())) {
    return DataLossError("rpc response status message overruns the stream");
  }
  std::string text;
  text.reserve(static_cast<size_t>(text_bytes));
  for (uint64_t i = 0; i < text_bytes; ++i) {
    DCS_ASSIGN_OR_RETURN(const uint64_t c, reader.TryReadBits(8));
    text.push_back(static_cast<char>(c));
  }
  response.status = code == 0
                        ? OkStatus()
                        : Status(static_cast<StatusCode>(code),
                                 std::move(text));
  DCS_ASSIGN_OR_RETURN(response.server_token, reader.TryReadBits(64));
  DCS_ASSIGN_OR_RETURN(const uint64_t object_id, reader.TryReadEliasGamma());
  if (object_id > (uint64_t{1} << 32)) {
    return DataLossError("rpc response object id out of range");
  }
  response.object_id = static_cast<int64_t>(object_id);
  DCS_ASSIGN_OR_RETURN(const uint64_t num_values, reader.TryReadEliasGamma());
  if (num_values > kMaxBatchQueries ||
      num_values * 64 > static_cast<uint64_t>(reader.RemainingBits())) {
    return DataLossError("rpc response declares more values than the stream");
  }
  response.values.reserve(static_cast<size_t>(num_values));
  for (uint64_t i = 0; i < num_values; ++i) {
    DCS_ASSIGN_OR_RETURN(const double value, reader.TryReadDouble());
    if (!std::isfinite(value)) {
      return DataLossError("rpc response value is not finite");
    }
    response.values.push_back(value);
  }
  DCS_RETURN_IF_ERROR(CheckFullyConsumed(reader, opened.bit_count));
  return response;
}

}  // namespace dcs
