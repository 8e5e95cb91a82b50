// File I/O shared by the store's segment files and the cache snapshot.
// Internal to src/store: nothing outside the store includes it.

#ifndef DCS_STORE_FILE_IO_H_
#define DCS_STORE_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dcs {

// "<what> <path>: <strerror(errno)>", as kNotFound when errno is ENOENT
// and kInternal otherwise. Call it right after the failing system call.
Status ErrnoError(const std::string& what, const std::string& path);

// The whole file at `path`. A file that shrinks while being read yields
// the bytes read so far.
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// Writes all `size` bytes to `fd`, retrying short writes and EINTR;
// `path` names the file in the error.
Status WriteAll(int fd, const uint8_t* data, size_t size,
                const std::string& path);

}  // namespace dcs

#endif  // DCS_STORE_FILE_IO_H_
