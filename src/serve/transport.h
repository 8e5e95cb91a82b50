// Real-socket message transport for the multi-process serving tier
// (DESIGN.md §14).
//
// Everything above this layer still speaks Message (comm/message.h): the
// transport moves one bit-exact Message per call across a Unix-domain or
// TCP stream socket, as one frame: a 32-bit little-endian byte length,
// the message's packed bytes, a 1 stop bit at bit `bit_count` (so the
// exact end survives), and zero padding. The frame has no checksum: every
// socket Message is an RPC body whose envelope (serve/wire.h) has one. A
// stream socket delivers bytes in order, so there is no chunking; a peer
// still speaking the simulation's 0xFA5C channel frame fails at the RPC
// magic. The receiver treats the stream as hostile: the length prefix is
// capped before the body is read, the body is read in bounded steps so
// memory grows only with bytes received, and every bit flip or truncation
// of a framed RPC yields a non-OK Status from Receive or the RPC decoder,
// never a crash, hang, or over-read (tests/corruption_test.cc).
//
// Failure vocabulary (the client's failover logic keys on it):
//   kDeadlineExceeded — a connect/read/write deadline expired; messages are
//                       prefixed "transport deadline:" like ReliableLink's.
//   kUnavailable      — the peer is gone: connect refused, EOF mid-message,
//                       reset. Retrying (or failing over) may succeed.
//   kDataLoss         — a frame length out of range, or no stop bit.
//   kInvalidArgument  — a malformed endpoint spec.
//
// All I/O is nonblocking with poll()-enforced deadlines and EINTR-safe
// retry loops; writes use MSG_NOSIGNAL so a dead peer surfaces as a Status,
// never SIGPIPE. A read that finds no bytes waits "spin, then park": if
// this connection's previous read-wait ended within a 50 us budget, it
// first re-checks readiness with a zero-timeout poll() and a CPU pause
// until data arrives, the budget runs out or the call's deadline does,
// and only then parks in poll(). Each wait's length is kept on the
// Connection, so a peer slower than the budget (a long query, an idle
// connection whose wait times out) makes the next wait park at once: a
// wait burns at most 50 us of CPU, and only right after a short one. A
// one-CPU host never spins, since the spinner would hold the CPU its peer
// needs. The spin counts against the deadline; writes never spin.
// ConnectWithBackoff retries refused connections under the same capped
// exponential backoff + deterministic jitter policy as
// ReliableLink (a dedicated seeded stream, so tests replay exactly).

#ifndef DCS_SERVE_TRANSPORT_H_
#define DCS_SERVE_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "comm/message.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

// Hard cap on one Message (2^33 bits, 1 GiB). RPC bodies (graphs, query
// batches, double vectors) are far below this; anything larger is a
// corrupted or hostile header.
constexpr int64_t kMaxTransportMessageBits = int64_t{1} << 33;

// Hard cap on a frame's length prefix: the largest message plus its stop
// bit, in bytes. Receive rejects anything above it (and 0) before reading
// the body.
constexpr uint32_t kMaxTransportFrameBytes =
    static_cast<uint32_t>(kMaxTransportMessageBits / 8 + 1);

// A parsed endpoint: "unix:/path/to.sock" or "tcp:HOST:PORT" (numeric IPv4
// or "localhost"). ToSpec() round-trips, so a Listener bound to port 0 can
// hand out its real address.
struct Endpoint {
  bool is_unix = false;
  std::string path;  // unix socket path
  std::string host;  // tcp numeric IPv4 (or "localhost")
  int port = 0;      // tcp port
  std::string ToSpec() const;
};

// Parses an endpoint spec. kInvalidArgument on malformed input (unknown
// scheme, unix path too long for sockaddr_un, bad port).
StatusOr<Endpoint> ParseEndpoint(const std::string& spec);

// Deadlines and reconnect policy for one logical connection.
struct TransportOptions {
  int connect_timeout_ms = 2000;  // per connect() attempt
  int io_timeout_ms = 5000;       // per Send/Receive call
  // Capped exponential backoff between reconnect attempts:
  // min(base << attempt, cap), jittered into [b/2, b].
  int reconnect_base_ms = 5;
  int reconnect_cap_ms = 200;
  int max_connect_attempts = 8;
  uint64_t seed = 0;  // jitter determinism

  void Check() const;  // CHECK-fails on nonsensical values
};

// One connected stream socket, move-only; closes on destruction. A
// Connection is not thread-safe: callers serialize Send/Receive (the
// cluster client holds one connection per worker behind a mutex, the
// worker one per accepted client on its own thread).
class Connection {
 public:
  Connection() = default;  // invalid until assigned
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { Close(); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&& other) noexcept
      : fd_(other.fd_), last_read_wait_(other.last_read_wait_) {
    other.fd_ = -1;
  }
  Connection& operator=(Connection&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      last_read_wait_ = other.last_read_wait_;
      other.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  // Sends one Message as one frame, in a single buffer. The deadline
  // covers the whole call. kDeadlineExceeded ("transport deadline:") on
  // timeout, kUnavailable if the peer vanished mid-write.
  Status Send(const Message& message, int timeout_ms);

  // Receives one Message. Validates its frame as hostile input:
  // kDataLoss on any format violation, kUnavailable on EOF/reset,
  // kDeadlineExceeded ("transport deadline:") on timeout. A clean EOF
  // *before any byte* of a message also returns kUnavailable ("connection
  // closed"), which servers use as the end-of-client signal.
  StatusOr<Message> Receive(int timeout_ms);

  // Waits, spin then park like Receive, until a byte or a hang-up is
  // readable. OK when one is; kDeadlineExceeded ("transport deadline:")
  // when `timeout_ms` passes first; kUnavailable as soon as `wake_fd`
  // (when not -1; a server's stop eventfd) turns readable, so an idle
  // server connection sees a stop at once.
  Status WaitReadable(int timeout_ms, int wake_fd = -1);

 private:
  int fd_ = -1;
  // Length of this connection's previous read-wait; zero (spin first)
  // until one has happened.
  std::chrono::nanoseconds last_read_wait_{0};
};

// A listening socket. For unix endpoints any stale socket file is
// unlinked before bind; for tcp, SO_REUSEADDR is set and port 0 binds an
// ephemeral port (local_endpoint() reports the real one).
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static StatusOr<Listener> Listen(const Endpoint& endpoint,
                                   int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  const Endpoint& local_endpoint() const { return endpoint_; }
  void Close();

  // Accepts one connection. kDeadlineExceeded on timeout, kUnavailable if
  // the listener is closed or `wake_fd` (when not -1; a server's stop
  // eventfd) turns readable, so a stopping accept loop need not wait out
  // its timeout.
  StatusOr<Connection> Accept(int timeout_ms, int wake_fd = -1);

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

// One connect attempt with a deadline. kUnavailable on refusal/unreachable,
// kDeadlineExceeded on timeout.
StatusOr<Connection> Connect(const Endpoint& endpoint, int timeout_ms);

// Connect with up to max_connect_attempts tries under capped exponential
// backoff with deterministic jitter drawn from `jitter_rng` (the caller
// owns the stream so replays are exact). Returns the last attempt's error
// when every try fails.
StatusOr<Connection> ConnectWithBackoff(const Endpoint& endpoint,
                                        const TransportOptions& options,
                                        Rng& jitter_rng);

}  // namespace dcs

#endif  // DCS_SERVE_TRANSPORT_H_
