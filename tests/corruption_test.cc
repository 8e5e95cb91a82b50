// Corruption-robustness harness for every wire format in the library.
//
// For each serializable object (graphs and all four sketch kinds) this test
// flips every single bit of the serialized stream and truncates the stream
// at every byte length, and asserts that every mutation comes back as a
// clean non-OK Status — never a crash, a hang, or an attempt to allocate
// from a corrupted length field. The envelope checksum (util/envelope.cc)
// is what makes the exhaustive claim hold: any payload mutation changes the
// CRC32C, and header mutations are each individually validated. CRC32C
// also catches every pair of flipped bits, which one test checks over the
// checksum field and payload of a query body.
//
// The mutations are deterministic (every position, no sampled randomness),
// so a regression here is reproducible from the failure message alone.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "comm/message.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "sketch/cut_balance_sparsifier.h"
#include "sketch/directed_sketches.h"
#include "sketch/sampled_sketches.h"
#include "sketch/serialization.h"
#include "store/segment.h"
#include "util/bitio.h"
#include "util/checksum.h"
#include "util/envelope.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {
namespace {

// A serialized stream plus a parser that must reject every mutation of it.
struct WireCase {
  std::string name;
  std::vector<uint8_t> bytes;
  int64_t bit_count = 0;
  std::function<Status(BitReader&)> parse;
};

template <typename DeserializeFn>
std::function<Status(BitReader&)> AsParser(DeserializeFn deserialize) {
  return [deserialize](BitReader& reader) {
    return deserialize(reader).status();
  };
}

// Adapts a Message-taking RPC decoder (serve/wire.h) to the BitReader
// harness. The decoder validates the declared payload length against the
// Message's *exact* bit count — not the padded byte buffer — so the adapter
// reads back at most the original bit count: a full-length mutation
// reconstructs the stream bit-for-bit, while a truncation yields a shorter
// Message the decoder must reject.
template <typename DecodeFn>
std::function<Status(BitReader&)> AsRpcParser(int64_t bit_count,
                                              DecodeFn decode) {
  return [bit_count, decode](BitReader& reader) -> Status {
    BitWriter writer;
    for (int64_t b = 0; b < bit_count && !reader.AtEnd(); ++b) {
      const auto bit = reader.TryReadBit();
      if (!bit.ok()) return bit.status();
      writer.WriteBit(*bit);
    }
    return decode(SealMessage(writer));
  };
}

std::vector<WireCase> BuildWireCases() {
  std::vector<WireCase> cases;
  Rng rng(2024);

  {
    WireCase c;
    c.name = "directed_graph";
    const DirectedGraph g = RandomBalancedDigraph(10, 0.5, 2.0, rng);
    BitWriter writer;
    SerializeDirectedGraph(g, writer);
    c.bytes = writer.bytes();
    c.bit_count = writer.bit_count();
    c.parse = AsParser(
        [](BitReader& r) { return DeserializeDirectedGraph(r); });
    cases.push_back(std::move(c));
  }
  {
    WireCase c;
    c.name = "undirected_graph";
    const UndirectedGraph g =
        RandomUndirectedGraph(10, 0.5, 0.25, 2.0, true, rng);
    BitWriter writer;
    SerializeUndirectedGraph(g, writer);
    c.bytes = writer.bytes();
    c.bit_count = writer.bit_count();
    c.parse = AsParser(
        [](BitReader& r) { return DeserializeUndirectedGraph(r); });
    cases.push_back(std::move(c));
  }

  const UndirectedGraph base =
      RandomUndirectedGraph(8, 0.6, 0.5, 1.5, true, rng);
  {
    WireCase c;
    c.name = "foreach_sketch";
    const ForEachCutSketch sketch(base, 0.4, rng);
    BitWriter writer;
    sketch.Serialize(writer);
    c.bytes = writer.bytes();
    c.bit_count = writer.bit_count();
    c.parse = AsParser(
        [](BitReader& r) { return ForEachCutSketch::Deserialize(r); });
    cases.push_back(std::move(c));
  }
  {
    WireCase c;
    c.name = "forall_sparsifier";
    const BenczurKargerSparsifier sketch(base, 0.4, rng);
    BitWriter writer;
    sketch.Serialize(writer);
    c.bytes = writer.bytes();
    c.bit_count = writer.bit_count();
    c.parse = AsParser(
        [](BitReader& r) { return BenczurKargerSparsifier::Deserialize(r); });
    cases.push_back(std::move(c));
  }

  const DirectedGraph digraph = RandomBalancedDigraph(8, 0.6, 2.0, rng);
  {
    WireCase c;
    c.name = "directed_foreach_sketch";
    const DirectedForEachSketch sketch(digraph, 0.4, 2.0, rng);
    BitWriter writer;
    sketch.Serialize(writer);
    c.bytes = writer.bytes();
    c.bit_count = writer.bit_count();
    c.parse = AsParser(
        [](BitReader& r) { return DirectedForEachSketch::Deserialize(r); });
    cases.push_back(std::move(c));
  }
  {
    WireCase c;
    c.name = "directed_forall_sketch";
    const DirectedForAllSketch sketch(digraph, 0.4, 2.0, rng);
    BitWriter writer;
    sketch.Serialize(writer);
    c.bytes = writer.bytes();
    c.bit_count = writer.bit_count();
    c.parse = AsParser(
        [](BitReader& r) { return DirectedForAllSketch::Deserialize(r); });
    cases.push_back(std::move(c));
  }
  {
    // The cut-balance sparsifier wire format (StreamKind 8): parameter
    // header, Elias-gamma quantized-imbalance vector, then a nested
    // directed-graph envelope for the importance sample. Both layers of
    // checksum plus the parameter validation must reject every mutation.
    WireCase c;
    c.name = "cut_balance_sparsifier";
    const CutBalanceSparsifier sketch(digraph, 0.4, 2.0, rng);
    BitWriter writer;
    sketch.Serialize(writer);
    c.bytes = writer.bytes();
    c.bit_count = writer.bit_count();
    c.parse = AsParser(
        [](BitReader& r) { return CutBalanceSparsifier::Deserialize(r); });
    cases.push_back(std::move(c));
  }
  {
    // A lossy-channel frame (comm/channel.h) as its receiver sees it: the
    // parser's own checks plus the transfer-geometry validation ReliableLink
    // applies (expected seq/total/message/payload sizes) — a header that
    // disagrees is NACKed exactly like a parse failure, so the combination
    // must reject every mutation.
    WireCase c;
    c.name = "channel_frame";
    BitWriter payload;
    for (int b = 0; b < 300; ++b) {
      payload.WriteBit(static_cast<int>(rng.Next() & 1));
    }
    BitWriter framed;
    WriteChannelFrame(/*seq=*/3, /*total_chunks=*/7, /*message_bits=*/2048,
                      payload.bytes(), payload.bit_count(), framed);
    c.bytes = framed.bytes();
    c.bit_count = framed.bit_count();
    c.parse = [](BitReader& r) -> Status {
      const auto frame = TryParseChannelFrame(r);
      if (!frame.ok()) return frame.status();
      if (frame->seq != 3 || frame->total_chunks != 7 ||
          frame->message_bits != 2048 || frame->payload_bits != 300) {
        return DataLossError("channel frame header mismatch");
      }
      return OkStatus();
    };
    cases.push_back(std::move(c));
  }
  {
    // RPC envelopes (serve/wire.h): what a serving-tier worker or client
    // decodes after Receive. The body carries its own
    // magic/version/kind/length/CRC32C envelope, the only checksum on the
    // socket, so every mutation must be rejected at this layer.
    WireCase c;
    c.name = "rpc_register_graph_request";
    RpcRequest request;
    request.kind = RpcKind::kRegisterGraph;
    request.graph = digraph;
    const Message message = EncodeRpcRequest(request);
    c.bytes = message.bytes;
    c.bit_count = message.bit_count;
    c.parse = AsRpcParser(message.bit_count, [](const Message& m) {
      return DecodeRpcRequest(m).status();
    });
    cases.push_back(std::move(c));
  }
  {
    WireCase c;
    c.name = "rpc_query_batch_request";
    RpcRequest request;
    request.kind = RpcKind::kQueryBatch;
    request.object_id = 7;
    request.num_vertices = 12;
    for (int q = 0; q < 6; ++q) {
      VertexSet side(12, 0);
      for (auto& bit : side) bit = rng.Bernoulli(0.5) ? 1 : 0;
      request.sides.push_back(std::move(side));
    }
    const Message message = EncodeRpcRequest(request);
    c.bytes = message.bytes;
    c.bit_count = message.bit_count;
    c.parse = AsRpcParser(message.bit_count, [](const Message& m) {
      return DecodeRpcRequest(m).status();
    });
    cases.push_back(std::move(c));
  }
  {
    WireCase c;
    c.name = "rpc_ok_response";
    RpcResponse response;
    response.status = OkStatus();
    response.server_token = 0xDEADBEEFCAFEF00DULL;
    response.object_id = 3;
    for (int i = 0; i < 9; ++i) {
      response.values.push_back(rng.UniformDouble() * 100.0);
    }
    const Message message = EncodeRpcResponse(response);
    c.bytes = message.bytes;
    c.bit_count = message.bit_count;
    c.parse = AsRpcParser(message.bit_count, [](const Message& m) {
      return DecodeRpcResponse(m).status();
    });
    cases.push_back(std::move(c));
  }
  {
    // An error response carries a status-message string; its length field
    // and every text byte ride inside the checksummed payload.
    WireCase c;
    c.name = "rpc_error_response";
    RpcResponse response;
    response.status =
        ResourceExhaustedError("shard queue full; back off and retry");
    response.server_token = 0x0123456789ABCDEFULL;
    const Message message = EncodeRpcResponse(response);
    c.bytes = message.bytes;
    c.bit_count = message.bit_count;
    c.parse = AsRpcParser(message.bit_count, [](const Message& m) {
      return DecodeRpcResponse(m).status();
    });
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(CorruptionTest, StreamsAreNonTrivial) {
  // Guards the harness itself: every case must parse cleanly uncorrupted
  // and be long enough that the flip sweep exercises header and payload.
  for (const WireCase& c : BuildWireCases()) {
    EXPECT_GT(c.bit_count, 100) << c.name;
    EXPECT_EQ(static_cast<int64_t>(c.bytes.size()), (c.bit_count + 7) / 8)
        << c.name;
    BitReader reader(c.bytes);
    EXPECT_TRUE(c.parse(reader).ok()) << c.name;
  }
}

TEST(CorruptionTest, EverySingleBitFlipIsRejected) {
  for (const WireCase& c : BuildWireCases()) {
    for (int64_t bit = 0; bit < c.bit_count; ++bit) {
      std::vector<uint8_t> mutated = c.bytes;
      mutated[static_cast<size_t>(bit / 8)] ^=
          static_cast<uint8_t>(1u << (bit % 8));
      BitReader reader(mutated);
      const Status status = c.parse(reader);
      ASSERT_FALSE(status.ok())
          << c.name << ": flipping bit " << bit << " of " << c.bit_count
          << " was not detected";
    }
  }
}

TEST(CorruptionTest, EveryByteTruncationIsRejected) {
  // bytes.size() == ceil(bit_count / 8), so dropping any trailing byte
  // removes at least one meaningful bit and must be detected.
  for (const WireCase& c : BuildWireCases()) {
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      const std::vector<uint8_t> truncated(c.bytes.begin(),
                                           c.bytes.begin() + len);
      BitReader reader(truncated);
      const Status status = c.parse(reader);
      ASSERT_FALSE(status.ok())
          << c.name << ": truncation to " << len << " of " << c.bytes.size()
          << " bytes was not detected";
    }
  }
}

TEST(CorruptionTest, TruncationReportsDataLoss) {
  // Spot-check the code (not just non-OK) on a clean truncation: half the
  // stream can only be missing data.
  for (const WireCase& c : BuildWireCases()) {
    const std::vector<uint8_t> truncated(
        c.bytes.begin(), c.bytes.begin() + c.bytes.size() / 2);
    BitReader reader(truncated);
    const Status status = c.parse(reader);
    ASSERT_FALSE(status.ok()) << c.name;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << c.name << ": " << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Socket transport framing (serve/transport.h): the length-prefixed frame
// a Connection::Receive parses off a real stream socket. The frame has no
// checksum of its own; the RPC envelope it carries is the only one. So the
// contract is on real framed RPC requests: every mutation is rejected by
// Receive or by DecodeRpcRequest, that is, before a worker could Execute
// it. Each mutation is delivered over an actual loopback connection whose
// write end closes after the bytes, so a mutation that implies "more data
// coming" (e.g. an inflated length prefix) surfaces as kUnavailable at EOF
// instead of hanging.

std::vector<uint8_t> LittleEndian32(uint32_t value) {
  return {static_cast<uint8_t>(value & 0xFF),
          static_cast<uint8_t>((value >> 8) & 0xFF),
          static_cast<uint8_t>((value >> 16) & 0xFF),
          static_cast<uint8_t>((value >> 24) & 0xFF)};
}

Status SendRaw(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return UnavailableError("raw send failed");
  }
  return OkStatus();
}

// Reads the nonblocking `fd` until its peer closes.
StatusOr<std::vector<uint8_t>> ReadRawToEnd(int fd) {
  std::vector<uint8_t> bytes;
  uint8_t buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes.insert(bytes.end(), buffer, buffer + n);
      continue;
    }
    if (n == 0) return bytes;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return UnavailableError("raw recv failed");
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 2000) <= 0) return UnavailableError("raw recv hung");
  }
}

// The bytes a real Connection::Send puts on the socket for `message`, read
// raw off the other end.
StatusOr<std::vector<uint8_t>> SocketWire(Listener& listener,
                                          const Message& message) {
  DCS_ASSIGN_OR_RETURN(Connection client,
                       Connect(listener.local_endpoint(), 1000));
  DCS_ASSIGN_OR_RETURN(Connection server, listener.Accept(1000));
  DCS_RETURN_IF_ERROR(client.Send(message, 1000));
  client.Close();
  return ReadRawToEnd(server.fd());
}

// Writes `wire` to a fresh loopback connection, closes the write end, and
// returns what Receive makes of it.
StatusOr<Message> DeliverRawWire(Listener& listener,
                                 const std::vector<uint8_t>& wire) {
  DCS_ASSIGN_OR_RETURN(Connection client,
                       Connect(listener.local_endpoint(), 1000));
  DCS_ASSIGN_OR_RETURN(Connection server, listener.Accept(1000));
  DCS_RETURN_IF_ERROR(SendRaw(client.fd(), wire));
  client.Close();
  return server.Receive(2000);
}

// What a worker makes of `wire`: Receive, then DecodeRpcRequest.
Status ReceiveAndDecode(Listener& listener, const std::vector<uint8_t>& wire) {
  DCS_ASSIGN_OR_RETURN(const Message message, DeliverRawWire(listener, wire));
  return DecodeRpcRequest(message).status();
}

// The real RPC requests the socket tests frame: the register request and
// the 6-side query batch of BuildWireCases, whose bodies both end on a
// byte boundary, and a ping, whose body does not.
std::vector<WireCase> FramedRpcRequests() {
  std::vector<WireCase> requests;
  for (WireCase& c : BuildWireCases()) {
    if (c.name == "rpc_register_graph_request" ||
        c.name == "rpc_query_batch_request") {
      requests.push_back(std::move(c));
    }
  }
  EXPECT_EQ(requests.size(), 2u);
  RpcRequest ping;
  ping.kind = RpcKind::kPing;
  const Message message = EncodeRpcRequest(ping);
  requests.push_back(
      WireCase{"rpc_ping_request", message.bytes, message.bit_count, {}});
  return requests;
}

TEST(CorruptionTest, SocketFrameIsLengthBytesAndStopBit) {
  // Pins the layout: a 32-bit little-endian length of
  // ceil((bit_count + 1) / 8), the message bits, a 1 at bit `bit_count`,
  // zero padding. The wire also round-trips bit-exactly through Receive.
  auto listener = Listener::Listen(*ParseEndpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  bool ragged_tail = false;
  for (const WireCase& c : FramedRpcRequests()) {
    ragged_tail |= c.bit_count % 8 != 0;
    const Message message{c.bytes, c.bit_count};
    const auto wire = SocketWire(*listener, message);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const size_t body_bytes = static_cast<size_t>((c.bit_count + 8) / 8);
    ASSERT_EQ(wire->size(), 4 + body_bytes) << c.name;
    EXPECT_EQ(std::vector<uint8_t>(wire->begin(), wire->begin() + 4),
              LittleEndian32(static_cast<uint32_t>(body_bytes)))
        << c.name;
    for (int64_t bit = 0; bit < static_cast<int64_t>(body_bytes) * 8;
         ++bit) {
      const int wire_bit = ((*wire)[4 + bit / 8] >> (bit % 8)) & 1;
      const int expected =
          bit < c.bit_count
              ? (c.bytes[static_cast<size_t>(bit / 8)] >> (bit % 8)) & 1
              : (bit == c.bit_count ? 1 : 0);
      ASSERT_EQ(wire_bit, expected) << c.name << ": frame body bit " << bit;
    }
    const auto received = DeliverRawWire(*listener, *wire);
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    EXPECT_EQ(received->bit_count, message.bit_count) << c.name;
    EXPECT_EQ(received->bytes, message.bytes) << c.name;
    EXPECT_TRUE(DecodeRpcRequest(*received).ok()) << c.name;
  }
  EXPECT_TRUE(ragged_tail) << "no fixture puts the stop bit mid-byte";
}

TEST(CorruptionTest, EverySocketFrameBitFlipIsRejected) {
  auto listener = Listener::Listen(*ParseEndpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  for (const WireCase& c : FramedRpcRequests()) {
    const auto wire = SocketWire(*listener, Message{c.bytes, c.bit_count});
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    // Every bit of every byte: the length prefix, the message bits, the
    // stop bit and the pad bits after it.
    for (size_t bit = 0; bit < wire->size() * 8; ++bit) {
      std::vector<uint8_t> mutated = *wire;
      mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_FALSE(ReceiveAndDecode(*listener, mutated).ok())
          << c.name << ": flipping wire bit " << bit << " of "
          << wire->size() * 8 << " was not detected";
    }
  }
}

TEST(CorruptionTest, EverySocketFrameTruncationIsRejected) {
  auto listener = Listener::Listen(*ParseEndpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  for (const WireCase& c : FramedRpcRequests()) {
    const auto wire = SocketWire(*listener, Message{c.bytes, c.bit_count});
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    for (size_t len = 0; len < wire->size(); ++len) {
      const std::vector<uint8_t> truncated(wire->begin(),
                                           wire->begin() + len);
      ASSERT_FALSE(DeliverRawWire(*listener, truncated).ok())
          << c.name << ": truncation to " << len << " of " << wire->size()
          << " wire bytes was not detected";
    }
  }
}

TEST(CorruptionTest, ChannelFrameWireIsDataLoss) {
  // A peer still speaking the lossy-channel framing sends one 0xFA5C chunk
  // as its message: the frame is well formed, and the body fails at the
  // RPC magic, explicitly.
  auto listener = Listener::Listen(*ParseEndpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const WireCase request = FramedRpcRequests().front();
  BitWriter framed;
  WriteChannelFrame(/*seq=*/0, /*total_chunks=*/1,
                    /*message_bits=*/request.bit_count, request.bytes,
                    request.bit_count, framed);
  const auto wire = SocketWire(*listener, SealMessage(framed));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const Status status = ReceiveAndDecode(*listener, *wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("magic"), std::string::npos)
      << status.ToString();
}

TEST(CorruptionTest, SocketFrameWithoutStopBitIsDataLoss) {
  // A last byte of zero holds no stop bit, so the frame has no message end.
  auto listener = Listener::Listen(*ParseEndpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::vector<uint8_t> wire = LittleEndian32(3);
  wire.insert(wire.end(), {0xAB, 0xCD, 0x00});
  const auto received = DeliverRawWire(*listener, wire);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss)
      << received.status().ToString();
}

TEST(CorruptionTest, SocketLengthPrefixOverTheCapIsDataLoss) {
  auto listener = Listener::Listen(*ParseEndpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const auto received = DeliverRawWire(
      *listener, LittleEndian32(kMaxTransportFrameBytes + 1));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss)
      << received.status().ToString();
}

TEST(CorruptionTest, SocketLengthPrefixAtTheCapThenCloseIsUnavailable) {
  // The largest legal prefix with no body behind it: Receive must not
  // allocate the declared gigabyte up front, and the close ends the read.
  auto listener = Listener::Listen(*ParseEndpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const auto received =
      DeliverRawWire(*listener, LittleEndian32(kMaxTransportFrameBytes));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable)
      << received.status().ToString();
}

// ---------------------------------------------------------------------------
// Sketch-store segment files (store/segment.h). The contract is stricter
// than reject-everything: a mutation must come back either as a clean
// kDataLoss or as an OK scan whose surviving records are a *bit-exact
// prefix* of what was written (torn-tail recovery) — never a crash, a
// hang, or a single wrong byte served back.

struct SegmentImage {
  std::vector<uint8_t> bytes;
  std::vector<SegmentRecord> records;
};

SegmentRecord EnvelopedRecord(int64_t object_id, StreamKind kind,
                              const BitWriter& envelope) {
  SegmentRecord record;
  record.object_id = object_id;
  record.kind = kind;
  record.payload = envelope.bytes();
  record.payload_bits = envelope.bit_count();
  return record;
}

// Two records of different kinds, then the seal trailer. Pass sealed=false
// for the crash-exposed variant (records only).
SegmentImage BuildSegmentImage(bool sealed) {
  Rng rng(512);
  SegmentImage image;
  {
    BitWriter writer;
    SerializeDirectedGraph(RandomBalancedDigraph(9, 0.5, 2.0, rng), writer);
    image.records.push_back(
        EnvelopedRecord(3, StreamKind::kDirectedGraph, writer));
  }
  {
    BitWriter writer;
    SerializeUndirectedGraph(
        RandomUndirectedGraph(7, 0.5, 0.25, 1.5, true, rng), writer);
    image.records.push_back(
        EnvelopedRecord(8, StreamKind::kUndirectedGraph, writer));
  }
  for (const SegmentRecord& record : image.records) {
    AppendSegmentRecord(record, image.bytes);
  }
  if (sealed) {
    const std::vector<uint8_t> seal =
        BuildSegmentSeal(static_cast<int64_t>(image.bytes.size()));
    image.bytes.insert(image.bytes.end(), seal.begin(), seal.end());
  }
  return image;
}

// True iff `got` is a bit-exact prefix of `want` (payload bytes included).
bool RecordsArePrefix(const std::vector<SegmentRecord>& got,
                      const std::vector<SegmentRecord>& want) {
  if (got.size() > want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].object_id != want[i].object_id ||
        got[i].kind != want[i].kind ||
        got[i].payload_bits != want[i].payload_bits ||
        got[i].payload != want[i].payload) {
      return false;
    }
  }
  return true;
}

TEST(CorruptionTest, SegmentScanRoundTripsClean) {
  for (const bool sealed : {true, false}) {
    const SegmentImage image = BuildSegmentImage(sealed);
    const auto scan = ScanSegment(image.bytes);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->sealed, sealed);
    EXPECT_FALSE(scan->recovered_torn_tail);
    ASSERT_EQ(scan->records.size(), image.records.size());
    EXPECT_TRUE(RecordsArePrefix(scan->records, image.records));
  }
}

TEST(CorruptionTest, EverySegmentBitFlipIsRejectedOrAnExactPrefix) {
  for (const bool sealed : {true, false}) {
    const SegmentImage image = BuildSegmentImage(sealed);
    const size_t last_record_offset = static_cast<size_t>(
        SegmentRecordByteLength(image.records[0].payload_bits));
    for (size_t bit = 0; bit < image.bytes.size() * 8; ++bit) {
      std::vector<uint8_t> mutated = image.bytes;
      mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const auto scan = ScanSegment(mutated);
      if (!scan.ok()) {
        ASSERT_EQ(scan.status().code(), StatusCode::kDataLoss)
            << "sealed=" << sealed << " bit " << bit << ": "
            << scan.status().ToString();
        continue;
      }
      // A flip the scan tolerates (e.g. in the seal trailer, demoting the
      // segment to unsealed-with-torn-tail) must never alter served bytes.
      ASSERT_TRUE(RecordsArePrefix(scan->records, image.records))
          << "sealed=" << sealed << " bit " << bit
          << " survived the scan with wrong record bytes";
      // Unsealed, a flip may cost only the record that holds it, and only
      // when that record is last: damage with an intact record after it,
      // in the header as much as in the payload, is mid-file.
      if (!sealed && scan->records.size() < image.records.size()) {
        ASSERT_EQ(scan->records.size() + 1, image.records.size())
            << "bit " << bit;
        ASSERT_GE(bit / 8, last_record_offset)
            << "bit " << bit << " dropped an intact later record";
      }
    }
  }
}

TEST(CorruptionTest, EverySegmentTruncationIsRejectedOrAnExactPrefix) {
  for (const bool sealed : {true, false}) {
    const SegmentImage image = BuildSegmentImage(sealed);
    for (size_t len = 0; len < image.bytes.size(); ++len) {
      const std::vector<uint8_t> truncated(image.bytes.begin(),
                                           image.bytes.begin() + len);
      const auto scan = ScanSegment(truncated);
      if (!scan.ok()) {
        ASSERT_EQ(scan.status().code(), StatusCode::kDataLoss)
            << "sealed=" << sealed << " len " << len << ": "
            << scan.status().ToString();
        continue;
      }
      EXPECT_FALSE(scan->sealed) << "sealed=" << sealed << " len " << len;
      ASSERT_TRUE(RecordsArePrefix(scan->records, image.records))
          << "sealed=" << sealed << " truncation to " << len
          << " bytes yielded wrong record bytes";
    }
  }
}

TEST(CorruptionTest, UnsealedTruncationRecoversWholeRecordPrefix) {
  // The recovery guarantee, positively: chopping an unsealed segment
  // mid-record keeps exactly the records that fit whole — a kill between
  // Put and Seal costs the torn tail, nothing more.
  const SegmentImage image = BuildSegmentImage(/*sealed=*/false);
  const int64_t first_record_bytes =
      SegmentRecordByteLength(image.records[0].payload_bits);
  const std::vector<uint8_t> torn(
      image.bytes.begin(),
      image.bytes.begin() + first_record_bytes +
          SegmentRecordByteLength(image.records[1].payload_bits) / 2);
  const auto scan = ScanSegment(torn);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->recovered_torn_tail);
  EXPECT_EQ(scan->valid_prefix_bytes, first_record_bytes);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_TRUE(RecordsArePrefix(scan->records, image.records));
}

TEST(CorruptionTest, ByteInsertedBeforeAnIntactRecordIsDataLoss) {
  // One stray byte at every offset of an unsealed segment. Inserted at or
  // before the last record's first byte, it leaves an intact record after
  // the damage (possibly just one byte on), so the scan must not call it a
  // torn tail. Inserted inside the last record, it may only cost that one.
  const SegmentImage image = BuildSegmentImage(/*sealed=*/false);
  const size_t last_record_offset = static_cast<size_t>(
      SegmentRecordByteLength(image.records[0].payload_bits));
  for (size_t at = 0; at < image.bytes.size(); ++at) {
    std::vector<uint8_t> mutated = image.bytes;
    mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at), 0);
    const auto scan = ScanSegment(mutated);
    if (at <= last_record_offset) {
      ASSERT_FALSE(scan.ok()) << "byte inserted at " << at;
      EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
    } else if (scan.ok()) {
      ASSERT_TRUE(RecordsArePrefix(scan->records, image.records))
          << "byte inserted at " << at;
      ASSERT_GE(scan->records.size() + 1, image.records.size())
          << "byte inserted at " << at;
    }
  }
}

TEST(CorruptionTest, SealedTrailerThatMisstatesTheRecordsEndIsDataLoss) {
  // A well-formed trailer that claims the records end after record 0 (or
  // one byte early, or past the trailer's own start): the records no longer
  // tile the bytes before the trailer, which a seal never writes.
  const SegmentImage image = BuildSegmentImage(/*sealed=*/true);
  const int64_t trailer_at = static_cast<int64_t>(image.bytes.size()) - 16;
  const int64_t first_record_end =
      SegmentRecordByteLength(image.records[0].payload_bits);
  for (const int64_t claimed :
       {first_record_end, trailer_at - 1, trailer_at + 1}) {
    std::vector<uint8_t> mutated(image.bytes.begin(),
                                 image.bytes.begin() + trailer_at);
    const std::vector<uint8_t> seal = BuildSegmentSeal(claimed);
    mutated.insert(mutated.end(), seal.begin(), seal.end());
    const auto scan = ScanSegment(mutated);
    ASSERT_FALSE(scan.ok()) << "claimed records end " << claimed;
    EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
  }
}

TEST(CorruptionTest, QueryBatchVertexCountOverCapIsDataLoss) {
  // A checksummed query batch declaring one side of 2^28 + 1 vertices with
  // exactly that many side bits behind it: every length check passes, so
  // only the vertex cap keeps a hostile count away from the int-typed
  // RpcRequest::num_vertices (past INT_MAX it would wrap negative).
  constexpr int64_t kVertices = (int64_t{1} << 28) + 1;
  const Message message = [] {
    BitWriter payload;
    payload.WriteEliasGamma(0);  // object id
    payload.WriteEliasGamma(static_cast<uint64_t>(kVertices));
    payload.WriteEliasGamma(1);  // one side
    for (int64_t done = 0; done < kVertices; done += 64) {
      payload.WriteBits(0, static_cast<int>(std::min<int64_t>(
                               64, kVertices - done)));
    }
    // The RPC envelope (serve/wire.cc): magic, version, kind, length, CRC.
    BitWriter body;
    body.WriteBits(0xA9C5, 16);
    body.WriteBits(2, 8);
    body.WriteBits(static_cast<uint64_t>(RpcKind::kQueryBatch), 8);
    body.WriteEliasGamma(static_cast<uint64_t>(payload.bit_count()));
    body.WriteBits(Crc32c(payload.bytes()), 32);
    body.AppendBits(payload.bytes(), payload.bit_count());
    return SealMessage(body);
  }();
  const auto decoded = DecodeRpcRequest(message);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
      << decoded.status().ToString();
}

// The 1113-bit query body of BitIoGoldenTest (util_bitio_test): the same
// seed, the same graph drawn first, then 13 sides of 77 vertices.
Message GoldenQueryBody() {
  Rng rng(31337);
  (void)RandomBalancedDigraph(96, 0.2, 2.0, rng);
  RpcRequest query;
  query.kind = RpcKind::kQueryBatch;
  query.object_id = 9;
  query.num_vertices = 77;
  for (int q = 0; q < 13; ++q) {
    VertexSet side(77, 0);
    for (auto& bit : side) bit = rng.Bernoulli(0.5) ? 1 : 0;
    query.sides.push_back(std::move(side));
  }
  return EncodeRpcRequest(query);
}

// CRC32C's Hamming distance is at least 4 below 2^31 bits, so every pair
// of flipped bits within the checksum field and the payload is caught.
// FNV-1a gave no such guarantee. About half a million decodes.
TEST(CorruptionTest, EveryTwoBitFlipOfAQueryBodyChecksumAndPayloadIsRejected) {
  Message body = GoldenQueryBody();
  ASSERT_EQ(body.bit_count, 1113);
  const auto clean = DecodeRpcRequest(body);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  BitReader reader(body.bytes);
  const auto envelope = ReadEnvelope(0xA9C5, reader);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  // The checksum field is the 32 bits right before the payload, and the
  // payload runs to the end of the body.
  const int64_t first = body.bit_count - envelope->bit_count - 32;
  const auto flip = [&body](int64_t bit) {
    body.bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  };
  int64_t decodes = 0;
  for (int64_t a = first; a < body.bit_count; ++a) {
    flip(a);
    for (int64_t b = a + 1; b < body.bit_count; ++b) {
      flip(b);
      const bool accepted = DecodeRpcRequest(body).ok();
      flip(b);
      ++decodes;
      ASSERT_FALSE(accepted) << "flipping bits " << a << " and " << b;
    }
    flip(a);
  }
  const int64_t span = body.bit_count - first;
  EXPECT_EQ(decodes, span * (span - 1) / 2);
  EXPECT_GT(decodes, 500000);
}

TEST(CorruptionTest, GarbageBytesAreRejected) {
  // Deterministic pseudo-random garbage at several lengths: none of it can
  // carry a valid envelope (magic + checksum).
  Rng rng(7);
  for (const int64_t len : {1, 2, 3, 8, 64, 4096}) {
    std::vector<uint8_t> garbage(static_cast<size_t>(len));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    for (const WireCase& c : BuildWireCases()) {
      BitReader reader(garbage);
      EXPECT_FALSE(c.parse(reader).ok()) << c.name << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace dcs
