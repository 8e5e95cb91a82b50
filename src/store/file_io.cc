#include "store/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dcs {

Status ErrnoError(const std::string& what, const std::string& path) {
  const std::string message =
      what + " " + path + ": " + std::strerror(errno);
  return errno == ENOENT ? NotFoundError(message) : InternalError(message);
}

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = ErrnoError("cannot stat", path);
    ::close(fd);
    return status;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got =
        ::read(fd, bytes.data() + done, bytes.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      const Status status = ErrnoError("cannot read", path);
      ::close(fd);
      return status;
    }
    if (got == 0) break;  // shrank underneath us; keep what we have
    done += static_cast<size_t>(got);
  }
  bytes.resize(done);
  ::close(fd);
  return bytes;
}

Status WriteAll(int fd, const uint8_t* data, size_t size,
                const std::string& path) {
  size_t done = 0;
  while (done < size) {
    const ssize_t wrote = ::write(fd, data + done, size - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("cannot write", path);
    }
    done += static_cast<size_t>(wrote);
  }
  return OkStatus();
}

}  // namespace dcs
