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
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace dcs {
namespace {

// Reconnect backoff b is jittered into [(1 - kReconnectJitter) * b, b].
constexpr double kReconnectJitter = 0.5;

// First read step for a frame body; later steps double the buffer, so a
// hostile length prefix costs at most this much memory until the peer
// actually sends bytes.
constexpr size_t kReceiveStepBytes = size_t{1} << 16;

// How long a read-wait spins before it parks in poll(), and the longest
// previous wait after which the next one spins at all.
constexpr std::chrono::microseconds kReadSpinBudget{50};

// The exact bytes Connection::Send puts on the wire for `message`: a
// 32-bit little-endian body length, then the message's packed bytes with
// their pad bits cleared, a 1 stop bit at bit `bit_count`, and zero
// padding. The body is ceil((bit_count + 1) / 8) bytes.
std::vector<uint8_t> WriteTransportFrame(const Message& message) {
  DCS_CHECK_LE(message.bit_count, kMaxTransportMessageBits);
  DCS_CHECK_EQ(static_cast<int64_t>(message.bytes.size()),
               (message.bit_count + 7) / 8);
  const uint32_t body_bytes =
      static_cast<uint32_t>(message.bit_count / 8 + 1);
  std::vector<uint8_t> frame(4 + size_t{body_bytes}, 0);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<size_t>(i)] =
        static_cast<uint8_t>(body_bytes >> (8 * i));
  }
  std::copy(message.bytes.begin(), message.bytes.end(), frame.begin() + 4);
  // The last byte holds bit `bit_count`: keep the message bits below it,
  // set it, and leave the bits above it zero.
  const int stop = static_cast<int>(message.bit_count % 8);
  frame.back() = static_cast<uint8_t>((frame.back() & ((1u << stop) - 1)) |
                                      (1u << stop));
  return frame;
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
  std::chrono::steady_clock::time_point end() const { return end_; }

 private:
  std::chrono::steady_clock::time_point end_;
};

// Waits for `events` on fd within the deadline, or until `wake_fd` (when
// not -1) turns readable. OK when fd is ready; kDeadlineExceeded when the
// budget ran out first; kUnavailable when woken, even if fd is ready too.
Status PollFor(int fd, short events, const DeadlineTimer& deadline,
               const char* what, int wake_fd = -1) {
  while (true) {
    // poll() skips an entry whose fd is negative.
    struct pollfd pfds[2] = {{fd, events, 0}, {wake_fd, POLLIN, 0}};
    const int remaining = deadline.remaining_ms();
    if (remaining <= 0) {
      return DeadlineExceededError(std::string("transport deadline: ") +
                                   what + " timed out");
    }
    const int ready = ::poll(pfds, 2, remaining);
    if (ready > 0) {
      if (pfds[1].revents != 0) {
        return UnavailableError(std::string("transport ") + what +
                                " woken to stop");
      }
      return OkStatus();  // readable/ERR/HUP: let recv report
    }
    if (ready == 0) {
      return DeadlineExceededError(std::string("transport deadline: ") +
                                   what + " timed out");
    }
    if (errno == EINTR) continue;
    return UnavailableError(ErrnoString("poll"));
  }
}

// One spin step's pause: tells the core this is a wait loop, so a
// hyperthread sibling gets the pipeline meanwhile.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// On one CPU a spinning reader holds the core its peer needs to send.
bool SpinningHelps() {
  static const bool helps = std::thread::hardware_concurrency() > 1;
  return helps;
}

// Waits until fd is readable or hung up, or the deadline passes: spin,
// then park (transport.h). `last_wait` is the connection's previous wait
// length on entry and this wait's on return. The park also ends when
// `wake_fd` (when not -1) turns readable.
Status WaitToRead(int fd, const DeadlineTimer& deadline,
                  std::chrono::nanoseconds& last_wait, int wake_fd = -1) {
  const auto start = std::chrono::steady_clock::now();
  if (last_wait <= kReadSpinBudget && SpinningHelps()) {
    DCS_METRIC_INC("serve.transport.waits_spun");
    const auto spin_end = std::min(start + kReadSpinBudget, deadline.end());
    do {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, 0) > 0) {
        last_wait = std::chrono::steady_clock::now() - start;
        return OkStatus();  // readable/ERR/HUP: let recv report
      }
      CpuRelax();
    } while (std::chrono::steady_clock::now() < spin_end);
  } else {
    DCS_METRIC_INC("serve.transport.waits_parked");
  }
  const Status parked = PollFor(fd, POLLIN, deadline, "read", wake_fd);
  last_wait = std::chrono::steady_clock::now() - start;
  return parked;
}

// Reads exactly `count` bytes. `at_message_start` distinguishes a clean
// close between messages (a normal client departure) from a mid-message
// EOF; both are kUnavailable but the messages differ.
Status ReadFull(int fd, uint8_t* buf, size_t count,
                const DeadlineTimer& deadline, bool at_message_start,
                std::chrono::nanoseconds& last_wait) {
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
      DCS_RETURN_IF_ERROR(WaitToRead(fd, deadline, last_wait));
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
  const std::vector<uint8_t> bytes = WriteTransportFrame(message);
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
                               /*at_message_start=*/true, last_read_wait_));
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
                                 /*at_message_start=*/false,
                                 last_read_wait_));
  }
  DCS_METRIC_ADD("serve.transport.bytes_received",
                 static_cast<int64_t>(sizeof(prefix) + frame_len));
  // The highest set bit of the last byte is the stop bit; the message
  // ends just below it.
  const uint8_t last = body.back();
  if (last == 0) {
    DCS_METRIC_INC("serve.transport.frames_rejected");
    return DataLossError("transport frame has no stop bit");
  }
  const int stop = std::bit_width(last) - 1;
  body.back() = static_cast<uint8_t>(last ^ (1u << stop));
  const int64_t bit_count = static_cast<int64_t>(body.size() - 1) * 8 + stop;
  if (stop == 0) body.pop_back();
  DCS_METRIC_INC("serve.transport.messages_received");
  return Message{std::move(body), bit_count};
}

Status Connection::WaitReadable(int timeout_ms, int wake_fd) {
  if (!valid()) return FailedPreconditionError("wait on a closed connection");
  return WaitToRead(fd_, DeadlineTimer(timeout_ms), last_read_wait_, wake_fd);
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

StatusOr<Connection> Listener::Accept(int timeout_ms, int wake_fd) {
  if (!valid()) return UnavailableError("accept on a closed listener");
  const DeadlineTimer deadline(timeout_ms);
  while (true) {
    DCS_RETURN_IF_ERROR(PollFor(fd_, POLLIN, deadline, "accept", wake_fd));
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
      // Same policy as ReliableLink, drawn from the caller's dedicated
      // stream so retry schedules replay deterministically.
      const int64_t backoff =
          JitteredBackoff(options.reconnect_base_ms, attempt - 1,
                          options.reconnect_cap_ms, kReconnectJitter,
                          jitter_rng);
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
