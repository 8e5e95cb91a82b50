#include "e2e/host_speed.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.h"

namespace dcs::e2e {
namespace {

constexpr int kReps = 9;
constexpr int64_t kChainSteps = 10'000'000;
constexpr int kRoundTrips = 2500;

// Keeps the chain's result observable, so the loop cannot be dropped.
volatile uint64_t g_sink = 0;

uint64_t Chain(uint64_t x) {
  for (int64_t i = 0; i < kChainSteps; ++i) {
    x = (x * 6364136223846793005ULL + 1442695040888963407ULL) ^ (x >> 7);
  }
  return x;
}

// One byte over `fd`, retrying a call a signal interrupted: a SIGTERM
// handled on the peer thread must not end its echo loop while this thread
// waits for the echo.
bool ReadByte(int fd) {
  char byte = 0;
  ssize_t n = 0;
  do {
    n = ::read(fd, &byte, 1);
  } while (n < 0 && errno == EINTR);
  return n == 1;
}

bool WriteByte(int fd) {
  const char byte = 1;
  ssize_t n = 0;
  do {
    n = ::write(fd, &byte, 1);
  } while (n < 0 && errno == EINTR);
  return n == 1;
}

// Two pipes, closed on destruction.
struct Pipes {
  int to_peer[2] = {-1, -1};
  int from_peer[2] = {-1, -1};

  Pipes() = default;
  Pipes(const Pipes&) = delete;
  Pipes& operator=(const Pipes&) = delete;
  ~Pipes() {
    for (const int fd : {to_peer[0], to_peer[1], from_peer[0], from_peer[1]}) {
      if (fd >= 0) ::close(fd);
    }
  }
};

}  // namespace

StatusOr<double> MeasureReferenceMs() {
  Pipes pipes;
  if (::pipe2(pipes.to_peer, O_CLOEXEC) != 0 ||
      ::pipe2(pipes.from_peer, O_CLOEXEC) != 0) {
    return UnavailableError(std::string("pipe2: ") + std::strerror(errno));
  }
  // Echoes every byte until the write end of to_peer closes.
  std::thread peer([&pipes] {
    while (ReadByte(pipes.to_peer[0]) && WriteByte(pipes.from_peer[1])) {
    }
  });
  std::vector<double> ms;
  uint64_t x = 1;
  bool ok = true;
  for (int rep = 0; rep < kReps && ok; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    x = Chain(x);
    for (int i = 0; i < kRoundTrips && ok; ++i) {
      ok = WriteByte(pipes.to_peer[1]) && ReadByte(pipes.from_peer[0]);
    }
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  const int error = errno;
  ::close(pipes.to_peer[1]);
  pipes.to_peer[1] = -1;
  peer.join();
  g_sink = x;
  if (!ok) {
    return UnavailableError(std::string("reference round trip: ") +
                            std::strerror(error));
  }
  return Median(ms);
}

}  // namespace dcs::e2e
