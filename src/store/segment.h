// Append-only segment file format for the disk-backed sketch store
// (DESIGN.md §15).
//
// A segment is a byte stream of length-prefixed records, optionally
// terminated by a fixed-width seal trailer:
//
//   [record]* [seal trailer (16 bytes)]
//
// Record (whole bytes; every field fixed-width so the extent is a pure
// function of the header):
//   magic           16 bits   0x5E62 (distinct from every other magic)
//   object id       64 bits
//   payload kind     8 bits   StreamKind of the payload envelope
//   payload bits    64 bits   exact bit count of the payload
//   header CRC32C   32 bits   over the 19 header bytes above
//   payload         ceil(bits/8) bytes, final partial byte zero-padded
//
// The payload is exactly one serialization envelope of the declared kind,
// so the envelope's own CRC32C is the payload's checksum. CheckStoredEnvelope
// is the one payload check: SketchStore::Put runs it before writing and the
// scan runs it on every record it reads back.
//
// Seal trailer (what makes a segment *sealed*): records-end byte offset
// (64 bits), magic 0x5EA3D5CE (32), CRC32C over the first 12 trailer bytes
// (32). A sealed segment's records tile [0, records end) exactly, and the
// trailer is the last 16 bytes. Sealing fsyncs; an unsealed segment is by
// definition still crash-exposed.
//
// Hostile-input discipline (the transport's receiver rules): every field
// is bounds-checked, every declared length is capped against the remaining
// bytes before any allocation, zero padding is enforced, and no input can
// cause a crash, hang, or unbounded allocation. ScanSegment classifies a
// damaged segment as either *recoverable* (a torn tail: truncate at the
// last whole record) or *corrupt* (damage before the tail, inside a sealed
// segment, or a segment in an older layout) — never silently wrong
// bytes.

#ifndef DCS_STORE_SEGMENT_H_
#define DCS_STORE_SEGMENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/serialization.h"
#include "util/status.h"

namespace dcs {

// One record: an object's already-enveloped bytes plus its identity.
struct SegmentRecord {
  int64_t object_id = 0;
  StreamKind kind = StreamKind::kDirectedGraph;
  std::vector<uint8_t> payload;  // padded bytes of the payload envelope
  int64_t payload_bits = 0;      // exact bit count within `payload`
};

// Serialized byte length of a record with a payload of `payload_bits`.
int64_t SegmentRecordByteLength(int64_t payload_bits);

// OK iff `bytes` is exactly one serialization envelope of `kind` ending at
// bit `bit_count`, followed only by zero padding to the byte, and `kind` is
// one the store holds (a sketch, graph or edge stream; not the reserved
// value 9 nor a cache snapshot).
Status CheckStoredEnvelope(StreamKind kind, const std::vector<uint8_t>& bytes,
                           int64_t bit_count);

// Appends one record to `out` (whole bytes; `out` must be byte-aligned).
// CHECK-fails on malformed inputs — writers are trusted.
void AppendSegmentRecord(const SegmentRecord& record,
                         std::vector<uint8_t>& out);

// The seal trailer for a segment whose records occupy its first
// `records_end` bytes.
std::vector<uint8_t> BuildSegmentSeal(int64_t records_end);

// Parses exactly one record occupying the whole of `bytes` (a region read
// back from a known index location). kDataLoss on any mismatch, including
// trailing bytes.
StatusOr<SegmentRecord> ParseSegmentRecord(const std::vector<uint8_t>& bytes);

// The result of scanning a segment's bytes.
struct SegmentScan {
  std::vector<SegmentRecord> records;  // the valid prefix, in file order
  bool sealed = false;                 // valid trailer found
  int64_t image_bytes = 0;             // size of the scanned image
  // Bytes of the valid record prefix. Recovery truncates the file here.
  int64_t valid_prefix_bytes = 0;
  // True when trailing bytes past the prefix were cut (torn tail).
  bool recovered_torn_tail = false;
  int64_t dropped_tail_bytes = 0;
};

// Scans a segment image: a file's bytes (SketchStore maps it read-only
// for the scan) or an in-memory copy. Every record copies its payload out,
// so the scan outlives the image. OK (possibly with recovered_torn_tail)
// when the bytes are a valid record prefix followed by a torn tail that
// holds no verifying record. kDataLoss when damage sits *before* the tail
// (a damaged record, header or payload, with an intact record after it),
// for any mismatch inside a sealed segment, and for a segment in an older
// layout (record magic 0x5E60 or 0x5E61) — the caller must treat the
// segment as corrupt rather than truncate committed data away.
StatusOr<SegmentScan> ScanSegment(std::span<const uint8_t> bytes);

}  // namespace dcs

#endif  // DCS_STORE_SEGMENT_H_
