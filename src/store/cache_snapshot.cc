#include "store/cache_snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cmath>

#include "sketch/serialization.h"
#include "store/file_io.h"
#include "util/bitio.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// Matches the serialization layer's vertex cap: no packed side needs more
// words than this, and no honest snapshot can exceed it.
constexpr uint64_t kMaxSideWords = ((uint64_t{1} << 28) + 63) / 64;
// Floor on one encoded entry: 1-bit gamma id + 1-bit gamma count + 64-bit
// value. Declared entry counts are capped against remaining/66.
constexpr int64_t kMinEntryBits = 66;

Status SnapshotDataLoss(const std::string& what) {
  return DataLossError("cache snapshot: " + what);
}

}  // namespace

std::vector<uint8_t> EncodeCacheSnapshot(
    const std::vector<CacheSnapshotEntry>& entries) {
  BitWriter payload;
  payload.WriteEliasGamma(entries.size());
  for (const auto& entry : entries) {
    payload.WriteEliasGamma(static_cast<uint64_t>(entry.object));
    payload.WriteEliasGamma(entry.side_words.size());
    for (uint64_t word : entry.side_words) payload.WriteBits(word, 64);
    payload.WriteDouble(entry.value);
  }
  BitWriter out;
  WriteEnvelope(StreamKind::kCacheSnapshot, payload, out);
  return out.bytes();
}

StatusOr<std::vector<CacheSnapshotEntry>> DecodeCacheSnapshot(
    const std::vector<uint8_t>& bytes) {
  BitReader reader(bytes);
  DCS_ASSIGN_OR_RETURN(
      const EnvelopePayload payload,
      ReadEnvelopePayload(StreamKind::kCacheSnapshot, reader));
  DCS_RETURN_IF_ERROR(reader.TryReadZeroPadding());

  BitReader body(payload.bytes);
  DCS_ASSIGN_OR_RETURN(const uint64_t count, body.TryReadEliasGamma());
  if (count > static_cast<uint64_t>(
                  (payload.bit_count - body.position()) / kMinEntryBits) +
                  1) {
    return SnapshotDataLoss("declares " + std::to_string(count) +
                            " entries but the payload is shorter");
  }
  std::vector<CacheSnapshotEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    CacheSnapshotEntry entry;
    DCS_ASSIGN_OR_RETURN(const uint64_t object, body.TryReadEliasGamma());
    if (object > (uint64_t{1} << 62)) {
      return SnapshotDataLoss("entry object id out of range");
    }
    entry.object = static_cast<int64_t>(object);
    DCS_ASSIGN_OR_RETURN(const uint64_t words, body.TryReadEliasGamma());
    if (words > kMaxSideWords ||
        words > static_cast<uint64_t>(
                    (payload.bit_count - body.position()) / 64)) {
      return SnapshotDataLoss("entry side longer than the payload");
    }
    entry.side_words.resize(static_cast<size_t>(words));
    for (uint64_t w = 0; w < words; ++w) {
      DCS_ASSIGN_OR_RETURN(entry.side_words[w], body.TryReadBits(64));
    }
    DCS_ASSIGN_OR_RETURN(entry.value, body.TryReadDouble());
    if (!std::isfinite(entry.value)) {
      return SnapshotDataLoss("entry value is not finite");
    }
    entries.push_back(std::move(entry));
  }
  if (body.position() != payload.bit_count) {
    return SnapshotDataLoss("payload has trailing bits");
  }
  return entries;
}

Status WriteCacheSnapshotFile(
    const std::string& path,
    const std::vector<CacheSnapshotEntry>& entries) {
  const std::vector<uint8_t> bytes = EncodeCacheSnapshot(entries);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("cannot create", tmp);
  Status status = WriteAll(fd, bytes.data(), bytes.size(), tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = ErrnoError("cannot fsync", tmp);
  }
  ::close(fd);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoError("cannot rename", tmp);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  DCS_METRIC_INC("store.cache_snapshots_written");
  return OkStatus();
}

StatusOr<std::vector<CacheSnapshotEntry>> ReadCacheSnapshotFile(
    const std::string& path) {
  DCS_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                       ReadFileBytes(path));
  auto entries = DecodeCacheSnapshot(bytes);
  if (entries.ok()) DCS_METRIC_INC("store.cache_snapshots_loaded");
  return entries;
}

}  // namespace dcs
