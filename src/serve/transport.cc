#include "serve/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/envelope.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// Transport frame magic (util/envelope.h), distinct from the serialization
// envelope (0xD5CE), the RPC envelope (0xA9C5), the channel frame (0xFA5C)
// and the segment record (0x5E62). The kind is fixed: one Message.
constexpr uint64_t kTransportMagic = 0x57E4;
// Reconnect backoff b is jittered into [(1 - kReconnectJitter) * b, b].
constexpr double kReconnectJitter = 0.5;
constexpr uint64_t kTransportKind = 1;

// First read step for a frame body; later steps double the buffer, so a
// hostile length prefix costs at most this much memory until the peer
// actually sends bytes.
constexpr size_t kReceiveStepBytes = size_t{1} << 16;

// Parses one frame body (everything after the length prefix).
StatusOr<Message> ParseFrameBody(const std::vector<uint8_t>& body) {
  BitReader reader(body);
  DCS_ASSIGN_OR_RETURN(EnvelopePayload envelope,
                       ReadEnvelope(kTransportMagic, reader));
  if (envelope.kind != kTransportKind) {
    return DataLossError("transport frame kind " +
                         std::to_string(envelope.kind) + " is unknown");
  }
  DCS_ASSIGN_OR_RETURN(const int stop, reader.TryReadBit());
  if (stop != 1) return DataLossError("transport frame has no stop bit");
  DCS_RETURN_IF_ERROR(reader.TryReadZeroPadding());
  return Message{std::move(envelope.bytes), envelope.bit_count};
}

std::string ErrnoString(const char* op) {
  return std::string(op) + " failed: " + std::strerror(errno);
}

// Wall-clock budget for one transport call. poll() re-arms with the
// remaining budget after every EINTR or partial transfer, so a slow
// trickle cannot extend the deadline.
class DeadlineTimer {
 public:
  explicit DeadlineTimer(int timeout_ms)
      : end_(std::chrono::steady_clock::now() +
             std::chrono::milliseconds(timeout_ms)) {}

  int remaining_ms() const {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end_ - std::chrono::steady_clock::now());
    return static_cast<int>(std::max<int64_t>(0, left.count()));
  }
  bool expired() const { return remaining_ms() <= 0; }

 private:
  std::chrono::steady_clock::time_point end_;
};

// Waits for `events` on fd within the deadline. OK when ready;
// kDeadlineExceeded when the budget ran out first.
Status PollFor(int fd, short events, const DeadlineTimer& deadline,
               const char* what) {
  while (true) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int remaining = deadline.remaining_ms();
    if (remaining <= 0) {
      return DeadlineExceededError(std::string("transport deadline: ") +
                                   what + " timed out");
    }
    const int ready = ::poll(&pfd, 1, remaining);
    if (ready > 0) return OkStatus();  // readable/ERR/HUP: let recv report
    if (ready == 0) {
      return DeadlineExceededError(std::string("transport deadline: ") +
                                   what + " timed out");
    }
    if (errno == EINTR) continue;
    return UnavailableError(ErrnoString("poll"));
  }
}

// Reads exactly `count` bytes. `at_message_start` distinguishes a clean
// close between messages (a normal client departure) from a mid-message
// EOF; both are kUnavailable but the messages differ.
Status ReadFull(int fd, uint8_t* buf, size_t count,
                const DeadlineTimer& deadline, bool at_message_start) {
  size_t done = 0;
  while (done < count) {
    const ssize_t got = ::recv(fd, buf + done, count - done, 0);
    if (got > 0) {
      done += static_cast<size_t>(got);
      continue;
    }
    if (got == 0) {
      return UnavailableError(at_message_start && done == 0
                                  ? "connection closed"
                                  : "connection closed mid-message");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      DCS_RETURN_IF_ERROR(PollFor(fd, POLLIN, deadline, "read"));
      continue;
    }
    return UnavailableError(ErrnoString("recv"));
  }
  return OkStatus();
}

// Writes exactly `count` bytes. MSG_NOSIGNAL: a dead peer is a Status
// (kUnavailable via EPIPE/ECONNRESET), never a SIGPIPE.
Status WriteFull(int fd, const uint8_t* buf, size_t count,
                 const DeadlineTimer& deadline) {
  size_t done = 0;
  while (done < count) {
    const ssize_t sent = ::send(fd, buf + done, count - done, MSG_NOSIGNAL);
    if (sent > 0) {
      done += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      DCS_RETURN_IF_ERROR(PollFor(fd, POLLOUT, deadline, "write"));
      continue;
    }
    return UnavailableError(ErrnoString("send"));
  }
  return OkStatus();
}

Status ResolveIpv4(const std::string& host, struct in_addr* out) {
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), out) != 1) {
    return InvalidArgumentError("tcp host must be numeric IPv4 or "
                                "\"localhost\", got \"" +
                                host + "\"");
  }
  return OkStatus();
}

// Builds the sockaddr for an endpoint. Returns the address length.
Status FillSockaddr(const Endpoint& endpoint, struct sockaddr_storage* out,
                    socklen_t* out_len) {
  std::memset(out, 0, sizeof(*out));
  if (endpoint.is_unix) {
    auto* sun = reinterpret_cast<struct sockaddr_un*>(out);
    sun->sun_family = AF_UNIX;
    if (endpoint.path.size() + 1 > sizeof(sun->sun_path)) {
      return InvalidArgumentError("unix socket path too long: " +
                                  endpoint.path);
    }
    std::memcpy(sun->sun_path, endpoint.path.c_str(),
                endpoint.path.size() + 1);
    *out_len = static_cast<socklen_t>(offsetof(struct sockaddr_un, sun_path) +
                                      endpoint.path.size() + 1);
    return OkStatus();
  }
  auto* sin = reinterpret_cast<struct sockaddr_in*>(out);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(static_cast<uint16_t>(endpoint.port));
  DCS_RETURN_IF_ERROR(ResolveIpv4(endpoint.host, &sin->sin_addr));
  *out_len = sizeof(struct sockaddr_in);
  return OkStatus();
}

StatusOr<int> OpenSocket(const Endpoint& endpoint) {
  const int fd = ::socket(endpoint.is_unix ? AF_UNIX : AF_INET,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return UnavailableError(ErrnoString("socket"));
  return fd;
}

}  // namespace

void WriteTransportFrame(const Message& message, BitWriter& out) {
  DCS_CHECK_EQ(out.bit_count() % 8, 0);
  DCS_CHECK_LE(message.bit_count, kMaxTransportMessageBits);
  // The envelope, a 1 stop bit, then zero padding to a byte. The message
  // bits are raw, so without the stop bit a flip in the low bits of the
  // envelope's length could move the message's end across trailing zero
  // bits without changing the padded bytes the checksum covers.
  const int64_t frame_bytes =
      (EnvelopeSizeInBits(message.bit_count) + 1 + 7) / 8;
  out.WriteBits(static_cast<uint64_t>(frame_bytes), 32);
  AppendEnvelope(kTransportMagic, kTransportKind, message.bytes,
                 message.bit_count, out);
  out.WriteBit(1);
}

std::string Endpoint::ToSpec() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

StatusOr<Endpoint> ParseEndpoint(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.is_unix = true;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      return InvalidArgumentError("unix endpoint has an empty path: " + spec);
    }
    struct sockaddr_un probe;
    if (endpoint.path.size() + 1 > sizeof(probe.sun_path)) {
      return InvalidArgumentError("unix socket path too long: " + spec);
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return InvalidArgumentError("tcp endpoint must be tcp:HOST:PORT: " +
                                  spec);
    }
    endpoint.is_unix = false;
    endpoint.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    int port = 0;
    for (char c : port_text) {
      if (c < '0' || c > '9') {
        return InvalidArgumentError("tcp port is not a number: " + spec);
      }
      port = port * 10 + (c - '0');
      if (port > 65535) {
        return InvalidArgumentError("tcp port out of range: " + spec);
      }
    }
    endpoint.port = port;  // 0 is allowed: bind an ephemeral port
    struct in_addr scratch;
    DCS_RETURN_IF_ERROR(ResolveIpv4(endpoint.host, &scratch));
    return endpoint;
  }
  return InvalidArgumentError(
      "endpoint must start with unix: or tcp:, got \"" + spec + "\"");
}

void TransportOptions::Check() const {
  DCS_CHECK_GE(connect_timeout_ms, 1);
  DCS_CHECK_GE(io_timeout_ms, 1);
  DCS_CHECK_GE(reconnect_base_ms, 1);
  DCS_CHECK_GE(reconnect_cap_ms, reconnect_base_ms);
  DCS_CHECK_GE(max_connect_attempts, 1);
}

void Connection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Connection::Send(const Message& message, int timeout_ms) {
  if (!valid()) return FailedPreconditionError("send on a closed connection");
  BitWriter frame;
  WriteTransportFrame(message, frame);
  const std::vector<uint8_t>& bytes = frame.bytes();
  DCS_RETURN_IF_ERROR(
      WriteFull(fd_, bytes.data(), bytes.size(), DeadlineTimer(timeout_ms)));
  DCS_METRIC_ADD("serve.transport.bytes_sent",
                 static_cast<int64_t>(bytes.size()));
  DCS_METRIC_INC("serve.transport.messages_sent");
  return OkStatus();
}

StatusOr<Message> Connection::Receive(int timeout_ms) {
  if (!valid()) {
    return FailedPreconditionError("receive on a closed connection");
  }
  const DeadlineTimer deadline(timeout_ms);
  uint8_t prefix[4];
  DCS_RETURN_IF_ERROR(ReadFull(fd_, prefix, sizeof(prefix), deadline,
                               /*at_message_start=*/true));
  const uint32_t frame_len = static_cast<uint32_t>(prefix[0]) |
                             (static_cast<uint32_t>(prefix[1]) << 8) |
                             (static_cast<uint32_t>(prefix[2]) << 16) |
                             (static_cast<uint32_t>(prefix[3]) << 24);
  if (frame_len == 0 || frame_len > kMaxTransportFrameBytes) {
    DCS_METRIC_INC("serve.transport.frames_rejected");
    return DataLossError("transport frame length " +
                         std::to_string(frame_len) + " out of range");
  }
  std::vector<uint8_t> body;
  while (body.size() < frame_len) {
    const size_t begin = body.size();
    body.resize(std::min<size_t>(frame_len,
                                 std::max(kReceiveStepBytes, 2 * begin)));
    DCS_RETURN_IF_ERROR(ReadFull(fd_, body.data() + begin,
                                 body.size() - begin, deadline,
                                 /*at_message_start=*/false));
  }
  DCS_METRIC_ADD("serve.transport.bytes_received",
                 static_cast<int64_t>(sizeof(prefix) + frame_len));
  auto message = ParseFrameBody(body);
  if (!message.ok()) {
    DCS_METRIC_INC("serve.transport.frames_rejected");
    return message.status();
  }
  DCS_METRIC_INC("serve.transport.messages_received");
  return message;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), endpoint_(std::move(other.endpoint_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    other.fd_ = -1;
  }
  return *this;
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (endpoint_.is_unix) ::unlink(endpoint_.path.c_str());
  }
}

StatusOr<Listener> Listener::Listen(const Endpoint& endpoint, int backlog) {
  DCS_CHECK_GE(backlog, 1);
  DCS_ASSIGN_OR_RETURN(const int fd, OpenSocket(endpoint));
  Listener listener;
  listener.fd_ = fd;
  listener.endpoint_ = endpoint;
  if (endpoint.is_unix) {
    // A stale socket file from a SIGKILLed predecessor would fail bind
    // with EADDRINUSE; replacing it is the restart path.
    ::unlink(endpoint.path.c_str());
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  struct sockaddr_storage addr;
  socklen_t addr_len = 0;
  DCS_RETURN_IF_ERROR(FillSockaddr(endpoint, &addr, &addr_len));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), addr_len) != 0) {
    return UnavailableError(ErrnoString("bind") + " for " +
                            endpoint.ToSpec());
  }
  if (::listen(fd, backlog) != 0) {
    return UnavailableError(ErrnoString("listen"));
  }
  if (!endpoint.is_unix && endpoint.port == 0) {
    struct sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                      &bound_len) != 0) {
      return UnavailableError(ErrnoString("getsockname"));
    }
    listener.endpoint_.port = ntohs(bound.sin_port);
  }
  return listener;
}

StatusOr<Connection> Listener::Accept(int timeout_ms) {
  if (!valid()) return UnavailableError("accept on a closed listener");
  const DeadlineTimer deadline(timeout_ms);
  while (true) {
    DCS_RETURN_IF_ERROR(PollFor(fd_, POLLIN, deadline, "accept"));
    const int client =
        ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client >= 0) {
      DCS_METRIC_INC("serve.transport.accepts");
      return Connection(client);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;  // raced a dying client; re-arm within the same deadline
    }
    return UnavailableError(ErrnoString("accept"));
  }
}

StatusOr<Connection> Connect(const Endpoint& endpoint, int timeout_ms) {
  DCS_ASSIGN_OR_RETURN(const int fd, OpenSocket(endpoint));
  Connection connection(fd);
  struct sockaddr_storage addr;
  socklen_t addr_len = 0;
  DCS_RETURN_IF_ERROR(FillSockaddr(endpoint, &addr, &addr_len));
  const DeadlineTimer deadline(timeout_ms);
  while (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   addr_len) != 0) {
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS || errno == EALREADY) {
      DCS_RETURN_IF_ERROR(PollFor(fd, POLLOUT, deadline, "connect"));
      int error = 0;
      socklen_t error_len = sizeof(error);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) != 0 ||
          error != 0) {
        return UnavailableError("connect to " + endpoint.ToSpec() +
                                " failed: " +
                                std::strerror(error != 0 ? error : errno));
      }
      break;
    }
    if (errno == EISCONN) break;
    return UnavailableError("connect to " + endpoint.ToSpec() +
                            " failed: " + std::strerror(errno));
  }
  DCS_METRIC_INC("serve.transport.connects");
  return connection;
}

StatusOr<Connection> ConnectWithBackoff(const Endpoint& endpoint,
                                        const TransportOptions& options,
                                        Rng& jitter_rng) {
  options.Check();
  Status last = UnavailableError("no connect attempts were made");
  for (int attempt = 0; attempt < options.max_connect_attempts; ++attempt) {
    if (attempt > 0) {
      // Same policy as ReliableLink: capped exponential base with
      // equal-jitter into [(1-jitter)*b, b], drawn from the caller's
      // dedicated stream so retry schedules replay deterministically.
      int64_t backoff = std::min<int64_t>(
          static_cast<int64_t>(options.reconnect_base_ms)
              << std::min(attempt - 1, 20),
          options.reconnect_cap_ms);
      if (backoff > 1) {
        const int64_t floor = std::max<int64_t>(
            1, static_cast<int64_t>(static_cast<double>(backoff) *
                                    (1.0 - kReconnectJitter)));
        backoff = floor + static_cast<int64_t>(jitter_rng.UniformInt(
                              static_cast<uint64_t>(backoff - floor + 1)));
      }
      DCS_METRIC_INC("serve.transport.connect_retries");
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    auto connection = Connect(endpoint, options.connect_timeout_ms);
    if (connection.ok()) return connection;
    last = connection.status();
  }
  return last;
}

}  // namespace dcs
