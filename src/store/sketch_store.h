// Disk-backed sketch store: the cold tier of the serving stack's
// cold/warm/hot policy (DESIGN.md §15).
//
// A store is a directory of append-only segment files (store/segment.h):
//
//   <dir>/segment-000001.seg
//   <dir>/segment-000002.seg        <- active (unsealed) segment
//
// Put appends one record — an object's already-enveloped serialized bytes
// — to the active segment; the in-memory index maps object id to its
// newest record (later puts supersede earlier ones; Compact reclaims the
// dead versions). The index is rebuilt by scanning every record at Open;
// nothing on disk restates it. Seal writes the segment's 16-byte seal
// trailer and fsyncs — only then is the segment's data durable against
// power loss. Put does not fsync: an acked object survives a process kill
// (its bytes sit in the page cache) but not power loss before the next
// Seal or Flush. A kill between Put and Seal leaves at worst a torn tail,
// which Open recovers by truncating at the last whole record; damage
// anywhere else, and a segment in an older layout (0x5E60, 0x5E61), is
// reported as kDataLoss and never truncated (the fsck verb distinguishes
// `recovered_torn_tail` from `corrupt`).
//
// Thread-safety: all methods may be called concurrently (one internal
// mutex; the serving tier appends from connection threads, one per
// shard at a time).

#ifndef DCS_STORE_SKETCH_STORE_H_
#define DCS_STORE_SKETCH_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/segment.h"
#include "util/status.h"

namespace dcs {

// Put rolls to a fresh segment once the active one holds this many bytes
// (the old one is sealed, so long-running workers accumulate durable
// segments).
inline constexpr int64_t kMaxSegmentBytes = int64_t{8} << 20;

// One stored object, bytes exactly as put.
struct StoredObject {
  StreamKind kind = StreamKind::kDirectedGraph;
  std::vector<uint8_t> bytes;
  int64_t bit_count = 0;
};

// What Open found on disk.
struct StoreOpenReport {
  int64_t segments = 0;
  int64_t records = 0;         // live + superseded
  int64_t objects = 0;         // distinct object ids
  int64_t torn_tails_recovered = 0;
  int64_t dropped_tail_bytes = 0;
};

// Read-only integrity report (the `dcs store --op fsck` verb).
struct StoreFsckReport {
  struct Segment {
    std::string file;
    // "sealed", "unsealed", "recovered_torn_tail", or "corrupt".
    std::string state;
    int64_t records = 0;
    int64_t dropped_tail_bytes = 0;
    std::string detail;  // the kDataLoss message for corrupt segments
  };
  std::vector<Segment> segments;
  int64_t corrupt_segments = 0;
  int64_t recovered_segments = 0;
  bool clean() const { return corrupt_segments == 0; }
};

struct StoreCompactReport {
  int64_t bytes_before = 0;
  int64_t bytes_after = 0;
  int64_t records_dropped = 0;  // superseded versions reclaimed
};

class SketchStore {
 public:
  // Opens (creating the directory if needed), scans every segment,
  // recovers torn tails by truncating the files in place, and builds the
  // object index. kDataLoss if any segment is corrupt beyond a torn tail.
  // The scan checks every record's header CRC and payload envelope
  // (CheckStoredEnvelope). With `newest` non-null, a successful Open also
  // hands over the newest record of every object, in ascending id: the
  // payloads the scan just verified, moved out with no second read and no
  // copy (a worker boots from them). Each equals what Get returns.
  static StatusOr<std::unique_ptr<SketchStore>> Open(
      const std::string& dir, std::vector<SegmentRecord>* newest = nullptr);

  // Closes the active segment WITHOUT sealing (a crash-equivalent close;
  // call Seal() first for durability). Recovery on next Open handles the
  // rest — that asymmetry is deliberate and tested.
  ~SketchStore();

  SketchStore(const SketchStore&) = delete;
  SketchStore& operator=(const SketchStore&) = delete;

  // Appends one record. `bytes`/`bit_count` must be a serialization
  // envelope of `kind` (CheckStoredEnvelope — kInvalidArgument/kDataLoss on
  // mismatch, so a store can never hold bytes it cannot re-serve).
  Status Put(int64_t object_id, StreamKind kind,
             const std::vector<uint8_t>& bytes, int64_t bit_count);

  // The newest record for `object_id`, bytes memcmp-identical to the Put.
  // kNotFound for unknown ids; kDataLoss if the record on disk no longer
  // verifies (detected at read time — Get re-checks the header checksum
  // and the payload envelope).
  StatusOr<StoredObject> Get(int64_t object_id) const;

  // Distinct object ids, ascending.
  std::vector<int64_t> ListObjects() const;

  // Seals the active segment: trailer, fsync. Idempotent
  // (no active segment = OK). The next Put starts a fresh segment.
  Status Seal();

  // fsyncs the active segment's appended bytes without sealing.
  Status Flush();

  // Rewrites the newest version of every object into one fresh sealed
  // segment and deletes the old files.
  StatusOr<StoreCompactReport> Compact();

  const StoreOpenReport& open_report() const { return open_report_; }
  const std::string& dir() const { return dir_; }
  int64_t num_objects() const;
  int64_t total_bytes() const;

 private:
  struct Location {
    size_t segment = 0;      // index into segment_files_
    int64_t byte_offset = 0;
    int64_t byte_length = 0;
  };

  explicit SketchStore(std::string dir);

  Status OpenActiveSegment();  // creates segment-(N+1) and its fd
  Status SealActive();         // trailer, fsync, close; mutex_ held
  Status AppendToActive(const std::vector<uint8_t>& bytes);
  std::string SegmentPath(int64_t number) const;

  const std::string dir_;
  StoreOpenReport open_report_;

  mutable std::mutex mutex_;
  // Segment file names (basename) in numeric order; parallel byte sizes.
  std::vector<std::string> segment_files_;
  std::vector<int64_t> segment_bytes_;
  std::map<int64_t, Location> index_;  // object id -> newest record
  // Active (unsealed) segment: -1 fd when none.
  int active_fd_ = -1;
  size_t active_segment_ = 0;
  int64_t active_number_ = 0;
  int64_t highest_number_ = 0;
};

// Read-only verification of every segment in `dir` (never writes or
// truncates). kNotFound if the directory does not exist.
StatusOr<StoreFsckReport> FsckSketchStore(const std::string& dir);

}  // namespace dcs

#endif  // DCS_STORE_SKETCH_STORE_H_
