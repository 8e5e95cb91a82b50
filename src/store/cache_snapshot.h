// Warm-tier persistence: dump/reload of the LRU cut-query cache
// (DESIGN.md §15). A worker draining on SIGTERM snapshots its hottest
// cache entries to `<store-dir>/cache.snap`; the replacement worker
// reloads them at boot so the first post-restart queries hit warm.
//
// The file is one serialization envelope (sketch/serialization.h, magic
// 0xD5CE) of kind StreamKind::kCacheSnapshot, zero-padded to a byte:
//
//   payload:
//     entry count  Elias-gamma
//     per entry:   object id (gamma), word count (gamma),
//                  words (64 bits each), value (64-bit double)
//
// A snapshot is an *optimization*, never a source of truth: any parse
// failure (bad magic, checksum mismatch, hostile counts) returns kDataLoss
// and the caller boots with a cold cache. That includes files in the older
// 0xCA5E layout, which fail on magic. Counts are capped against the
// remaining bits before any allocation, per the hostile-receiver rules.
//
// This module speaks its own entry type rather than the serving layer's
// (serve depends on store, not the other way around); the serving tier
// converts to/from CutQueryCache::SnapshotEntry at the call site.

#ifndef DCS_STORE_CACHE_SNAPSHOT_H_
#define DCS_STORE_CACHE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dcs {

// One cached (object, cut side) -> value triple in portable form. The
// side is the canonical bit-packed membership (64 vertices per word).
struct CacheSnapshotEntry {
  int64_t object = 0;
  std::vector<uint64_t> side_words;
  double value = 0;
};

// Encodes entries into snapshot bytes.
std::vector<uint8_t> EncodeCacheSnapshot(
    const std::vector<CacheSnapshotEntry>& entries);

// Decodes snapshot bytes. kDataLoss on any malformed input.
StatusOr<std::vector<CacheSnapshotEntry>> DecodeCacheSnapshot(
    const std::vector<uint8_t>& bytes);

// Writes entries to `path` atomically (temp file + rename + fsync).
Status WriteCacheSnapshotFile(const std::string& path,
                              const std::vector<CacheSnapshotEntry>& entries);

// Reads and decodes `path`. kNotFound when the file does not exist (a
// normal cold boot); kDataLoss when it exists but fails to parse.
StatusOr<std::vector<CacheSnapshotEntry>> ReadCacheSnapshotFile(
    const std::string& path);

}  // namespace dcs

#endif  // DCS_STORE_CACHE_SNAPSHOT_H_
