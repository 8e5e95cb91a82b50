#include "store/sketch_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "store/file_io.h"
#include "util/check.h"
#include "util/metrics.h"

namespace dcs {
namespace {

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("cannot fsync directory", dir);
  return OkStatus();
}

// segment-NNNNNN.seg -> NNNNNN, or -1 for anything else.
int64_t SegmentNumberOf(const std::string& name) {
  constexpr const char* kPrefix = "segment-";
  constexpr const char* kSuffix = ".seg";
  const size_t prefix_len = std::strlen(kPrefix);
  const size_t suffix_len = std::strlen(kSuffix);
  if (name.size() <= prefix_len + suffix_len) return -1;
  if (name.compare(0, prefix_len, kPrefix) != 0) return -1;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return -1;
  }
  int64_t number = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    number = number * 10 + (name[i] - '0');
    if (number > (int64_t{1} << 40)) return -1;
  }
  return number;
}

StatusOr<std::vector<std::pair<int64_t, std::string>>> ListSegmentFiles(
    const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return ErrnoError("cannot open directory", dir);
  std::vector<std::pair<int64_t, std::string>> files;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    const int64_t number = SegmentNumberOf(name);
    if (number >= 0) files.emplace_back(number, name);
  }
  ::closedir(handle);
  std::sort(files.begin(), files.end());
  return files;
}

// Scans the segment file at `path` (Open's and fsck's one read of it)
// through a read-only mapping that lives only for the scan: the records
// own copies of their payloads, so nothing points into the file once this
// returns, and Open may truncate a torn tail. A zero-byte segment (an
// active one just after a roll) is scanned without a mapping, which mmap
// refuses at length 0. A file that cannot be opened, stat'd or mapped is
// ErrnoError's kNotFound or kInternal; a damaged image is ScanSegment's
// kDataLoss.
StatusOr<SegmentScan> ScanSegmentFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = ErrnoError("cannot stat", path);
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return ScanSegment({});
  }
  // MAP_POPULATE: the scan reads every byte, so fault the pages in with
  // the map call instead of one fault per page run.
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                        fd, 0);
  const Status map_status =
      mapped == MAP_FAILED ? ErrnoError("cannot map", path) : OkStatus();
  ::close(fd);  // the mapping holds its own reference to the file
  DCS_RETURN_IF_ERROR(map_status);
  auto scan = ScanSegment({static_cast<const uint8_t*>(mapped), size});
  ::munmap(mapped, size);
  return scan;
}

}  // namespace

SketchStore::SketchStore(std::string dir) : dir_(std::move(dir)) {}

SketchStore::~SketchStore() {
  if (active_fd_ >= 0) ::close(active_fd_);
}

std::string SketchStore::SegmentPath(int64_t number) const {
  char name[32];
  std::snprintf(name, sizeof(name), "segment-%06lld.seg",
                static_cast<long long>(number));
  return dir_ + "/" + name;
}

StatusOr<std::unique_ptr<SketchStore>> SketchStore::Open(
    const std::string& dir, std::vector<SegmentRecord>* newest) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoError("cannot create store directory", dir);
  }
  std::unique_ptr<SketchStore> store(new SketchStore(dir));
  // Object id -> its newest verified record; a later record's move frees
  // the superseded payload.
  std::map<int64_t, SegmentRecord> newest_records;
  DCS_ASSIGN_OR_RETURN(const auto files, ListSegmentFiles(dir));
  for (const auto& [number, name] : files) {
    const std::string path = dir + "/" + name;
    auto scan = ScanSegmentFile(path);
    if (!scan.ok() && scan.status().code() != StatusCode::kDataLoss) {
      return scan.status();  // the file could not be read at all
    }
    if (!scan.ok()) {
      return DataLossError("data_loss: segment " + name + ": " +
                           scan.status().message());
    }
    if (scan->recovered_torn_tail) {
      // Cut the torn tail off on disk so appends extend a clean prefix.
      if (::truncate(path.c_str(), scan->valid_prefix_bytes) != 0) {
        return ErrnoError("cannot truncate torn tail of", path);
      }
      ++store->open_report_.torn_tails_recovered;
      store->open_report_.dropped_tail_bytes += scan->dropped_tail_bytes;
      DCS_METRIC_INC("store.torn_tails_recovered");
    }
    const size_t segment_index = store->segment_files_.size();
    store->segment_files_.push_back(name);
    store->segment_bytes_.push_back(
        scan->sealed ? scan->image_bytes : scan->valid_prefix_bytes);
    store->highest_number_ = std::max(store->highest_number_, number);
    int64_t offset = 0;
    for (SegmentRecord& record : scan->records) {
      const int64_t length = SegmentRecordByteLength(record.payload_bits);
      store->index_[record.object_id] = Location{segment_index, offset, length};
      offset += length;
      ++store->open_report_.records;
      if (newest != nullptr) {
        newest_records[record.object_id] = std::move(record);
      }
    }
    if (!scan->sealed) {
      // The newest unsealed segment becomes the active one; by the seal-
      // before-roll invariant it is the last file, so later iterations
      // (which would all be sealed anyway) cannot displace live state.
      if (store->active_fd_ >= 0) ::close(store->active_fd_);
      store->active_fd_ =
          ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
      if (store->active_fd_ < 0) {
        return ErrnoError("cannot reopen active segment", path);
      }
      store->active_segment_ = segment_index;
      store->active_number_ = number;
    }
  }
  store->open_report_.segments =
      static_cast<int64_t>(store->segment_files_.size());
  store->open_report_.objects = static_cast<int64_t>(store->index_.size());
  if (newest != nullptr) {
    newest->clear();
    newest->reserve(newest_records.size());
    for (auto& [id, record] : newest_records) {
      newest->push_back(std::move(record));
    }
  }
  DCS_METRIC_INC("store.opens");
  return store;
}

Status SketchStore::OpenActiveSegment() {
  const int64_t number = highest_number_ + 1;
  const std::string path = SegmentPath(number);
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("cannot create segment", path);
  active_fd_ = fd;
  active_number_ = number;
  highest_number_ = number;
  active_segment_ = segment_files_.size();
  segment_files_.push_back(path.substr(dir_.size() + 1));
  segment_bytes_.push_back(0);
  return OkStatus();
}

Status SketchStore::SealActive() {
  DCS_RETURN_IF_ERROR(
      AppendToActive(BuildSegmentSeal(segment_bytes_[active_segment_])));
  if (::fsync(active_fd_) != 0) {
    return ErrnoError("cannot fsync segment", SegmentPath(active_number_));
  }
  ::close(active_fd_);
  active_fd_ = -1;
  DCS_METRIC_INC("store.segments_sealed");
  return OkStatus();
}

Status SketchStore::AppendToActive(const std::vector<uint8_t>& bytes) {
  const std::string path = SegmentPath(active_number_);
  DCS_RETURN_IF_ERROR(WriteAll(active_fd_, bytes.data(), bytes.size(), path));
  segment_bytes_[active_segment_] += static_cast<int64_t>(bytes.size());
  return OkStatus();
}

Status SketchStore::Put(int64_t object_id, StreamKind kind,
                        const std::vector<uint8_t>& bytes,
                        int64_t bit_count) {
  if (object_id < 0) {
    return InvalidArgumentError("store object id must be nonnegative");
  }
  // The payload must be a serving-ready envelope of the declared kind —
  // the store refuses bytes it could never hand back to a deserializer.
  // The scan runs the same check on every record it reads back.
  DCS_RETURN_IF_ERROR(CheckStoredEnvelope(kind, bytes, bit_count));
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ >= 0 &&
      segment_bytes_[active_segment_] >= kMaxSegmentBytes) {
    // Roll: seal the full segment (fsync) before starting the next.
    DCS_RETURN_IF_ERROR(SealActive());
  }
  if (active_fd_ < 0) {
    DCS_RETURN_IF_ERROR(OpenActiveSegment());
  }
  SegmentRecord record;
  record.object_id = object_id;
  record.kind = kind;
  record.payload = bytes;
  record.payload_bits = bit_count;
  std::vector<uint8_t> encoded;
  AppendSegmentRecord(record, encoded);
  const Location location{active_segment_, segment_bytes_[active_segment_],
                          static_cast<int64_t>(encoded.size())};
  DCS_RETURN_IF_ERROR(AppendToActive(encoded));
  index_[object_id] = location;
  // Keep the live record count current — Compact derives its
  // records_dropped from it, so it must include post-Open appends.
  ++open_report_.records;
  DCS_METRIC_INC("store.puts");
  return OkStatus();
}

StatusOr<StoredObject> SketchStore::Get(int64_t object_id) const {
  Location location;
  std::string file;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(object_id);
    if (it == index_.end()) {
      return NotFoundError("store has no object " +
                           std::to_string(object_id));
    }
    location = it->second;
    file = segment_files_[location.segment];
  }
  const std::string path = dir_ + "/" + file;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open segment", path);
  std::vector<uint8_t> bytes(static_cast<size_t>(location.byte_length));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got = ::pread(
        fd, bytes.data() + done, bytes.size() - done,
        static_cast<off_t>(location.byte_offset) +
            static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      const Status status = ErrnoError("cannot read segment", path);
      ::close(fd);
      return status;
    }
    if (got == 0) {
      ::close(fd);
      return DataLossError("segment " + file +
                           " is shorter than its index");
    }
    done += static_cast<size_t>(got);
  }
  ::close(fd);
  // Get re-verifies the record's header checksum and payload envelope:
  // bytes that rotted on disk since Open surface as kDataLoss here, never
  // as wrong payload bits.
  DCS_ASSIGN_OR_RETURN(SegmentRecord record, ParseSegmentRecord(bytes));
  if (record.object_id != object_id) {
    return DataLossError("segment record holds object " +
                         std::to_string(record.object_id) + ", expected " +
                         std::to_string(object_id));
  }
  StoredObject object;
  object.kind = record.kind;
  object.bytes = std::move(record.payload);
  object.bit_count = record.payload_bits;
  DCS_METRIC_INC("store.gets");
  return object;
}

std::vector<int64_t> SketchStore::ListObjects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int64_t> ids;
  ids.reserve(index_.size());
  for (const auto& [id, location] : index_) ids.push_back(id);
  return ids;  // std::map iterates ascending
}

Status SketchStore::Seal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ < 0) return OkStatus();
  DCS_RETURN_IF_ERROR(SealActive());
  return FsyncDir(dir_);
}

Status SketchStore::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ < 0) return OkStatus();
  if (::fsync(active_fd_) != 0) {
    return ErrnoError("cannot fsync segment", SegmentPath(active_number_));
  }
  return OkStatus();
}

StatusOr<StoreCompactReport> SketchStore::Compact() {
  // Read the newest version of every object first (Get takes the lock
  // itself), then swap the files under the lock.
  std::vector<int64_t> ids = ListObjects();
  std::vector<StoredObject> objects;
  objects.reserve(ids.size());
  for (const int64_t id : ids) {
    DCS_ASSIGN_OR_RETURN(StoredObject object, Get(id));
    objects.push_back(std::move(object));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  StoreCompactReport report;
  for (const int64_t size : segment_bytes_) report.bytes_before += size;
  report.records_dropped =
      open_report_.records - static_cast<int64_t>(ids.size());

  std::vector<uint8_t> image;
  std::map<int64_t, Location> index;
  for (size_t i = 0; i < ids.size(); ++i) {
    SegmentRecord record;
    record.object_id = ids[i];
    record.kind = objects[i].kind;
    record.payload = std::move(objects[i].bytes);
    record.payload_bits = objects[i].bit_count;
    const int64_t offset = static_cast<int64_t>(image.size());
    AppendSegmentRecord(record, image);
    index[ids[i]] =
        Location{0, offset, static_cast<int64_t>(image.size()) - offset};
  }
  const std::vector<uint8_t> seal =
      BuildSegmentSeal(static_cast<int64_t>(image.size()));
  image.insert(image.end(), seal.begin(), seal.end());

  const int64_t number = highest_number_ + 1;
  const std::string path = SegmentPath(number);
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("cannot create segment", path);
  const Status written = WriteAll(fd, image.data(), image.size(), path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return ErrnoError("cannot fsync segment", path);
  }
  ::close(fd);

  // The compacted segment is durable; now the old files can go.
  if (active_fd_ >= 0) {
    ::close(active_fd_);
    active_fd_ = -1;
  }
  for (const std::string& file : segment_files_) {
    ::unlink((dir_ + "/" + file).c_str());
  }
  DCS_RETURN_IF_ERROR(FsyncDir(dir_));

  segment_files_.assign(1, path.substr(dir_.size() + 1));
  segment_bytes_.assign(1, static_cast<int64_t>(image.size()));
  highest_number_ = number;
  index_ = std::move(index);
  open_report_.records = static_cast<int64_t>(index_.size());
  report.bytes_after = static_cast<int64_t>(image.size());
  DCS_METRIC_INC("store.compactions");
  return report;
}

int64_t SketchStore::num_objects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(index_.size());
}

int64_t SketchStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const int64_t size : segment_bytes_) total += size;
  return total;
}

StatusOr<StoreFsckReport> FsckSketchStore(const std::string& dir) {
  DCS_ASSIGN_OR_RETURN(const auto files, ListSegmentFiles(dir));
  StoreFsckReport report;
  for (const auto& [number, name] : files) {
    StoreFsckReport::Segment segment;
    segment.file = name;
    const auto scan = ScanSegmentFile(dir + "/" + name);
    if (!scan.ok() && scan.status().code() != StatusCode::kDataLoss) {
      return scan.status();  // the file could not be read at all
    }
    if (!scan.ok()) {
      segment.state = "corrupt";
      segment.detail = scan.status().message();
      ++report.corrupt_segments;
    } else {
      segment.records = static_cast<int64_t>(scan->records.size());
      if (scan->recovered_torn_tail) {
        segment.state = "recovered_torn_tail";
        segment.dropped_tail_bytes = scan->dropped_tail_bytes;
        ++report.recovered_segments;
      } else {
        segment.state = scan->sealed ? "sealed" : "unsealed";
      }
    }
    report.segments.push_back(std::move(segment));
  }
  return report;
}

}  // namespace dcs
