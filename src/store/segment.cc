#include "store/segment.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

#include "util/bitio.h"
#include "util/check.h"
#include "util/checksum.h"

namespace dcs {
namespace {

// Record magic, distinct from the serialization envelope (0xD5CE), the
// channel frame (0xFA5C) and the RPC envelope (0xA9C5): a segment misfed
// to another parser (or vice versa) dies at the first header field.
constexpr uint64_t kRecordMagic = 0x5E62;
// The record magics of older layouts, never read, only named: 0x5E60 put a
// payload FNV-1a after the header FNV-1a and an index footer before the
// trailer; 0x5E61 is this layout with FNV-1a-32 in place of CRC32C (and
// version-1 envelopes as payloads).
constexpr uint64_t kOlderRecordMagics[] = {0x5E60, 0x5E61};
// Seal trailer magic: "SEAL" over the envelope magic, bumped with the
// record magic.
constexpr uint64_t kTrailerMagic = 0x5EA3D5CE;

constexpr int64_t kRecordHeaderBytes = 19;  // magic + id + kind + bits
constexpr int64_t kRecordPrefixBytes =
    kRecordHeaderBytes + 4;                 // + header CRC
constexpr int64_t kTrailerBytes = 16;

// Caps mirroring the transport's hostile-receiver rules: ids bounded like
// RPC object ids, lengths bounded so arithmetic cannot overflow.
constexpr uint64_t kMaxObjectId = uint64_t{1} << 32;
constexpr uint64_t kMaxByteField = uint64_t{1} << 62;

uint64_t LoadLe(const uint8_t* bytes, int width_bytes) {
  uint64_t value = 0;
  for (int i = 0; i < width_bytes; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

// Kind 9 is reserved (the older layout's index footer) and kCacheSnapshot
// lives in its own file, so neither is a storable record kind.
bool StorableKind(StreamKind kind) {
  return kind >= StreamKind::kDirectedGraph &&
         kind <= StreamKind::kCutBalanceSparsifier;
}

// True iff a record that verifies starts at byte `pos` of `bytes` and ends
// by byte `end`: magic, header checksum, caps, and a payload that passes
// CheckStoredEnvelope. Fills `record` and `byte_length` when it does.
bool TryParseRecordAt(std::span<const uint8_t> bytes, int64_t pos,
                      int64_t end, SegmentRecord& record,
                      int64_t& byte_length) {
  const int64_t remaining = end - pos;
  if (remaining < kRecordPrefixBytes) return false;
  const uint8_t* p = bytes.data() + pos;
  if (LoadLe(p, 2) != kRecordMagic) return false;
  const uint64_t object_id = LoadLe(p + 2, 8);
  const uint64_t kind = LoadLe(p + 10, 1);
  const uint64_t payload_bits = LoadLe(p + 11, 8);
  const uint32_t header_checksum = static_cast<uint32_t>(LoadLe(p + 19, 4));
  if (Crc32c(p, static_cast<size_t>(kRecordHeaderBytes)) !=
      header_checksum) {
    return false;
  }
  // Header verified: the declared fields are what the writer wrote, but a
  // hostile writer could still declare absurd values — cap before use.
  if (object_id > kMaxObjectId || payload_bits > kMaxByteField ||
      (payload_bits + 7) / 8 >
          static_cast<uint64_t>(remaining - kRecordPrefixBytes)) {
    return false;
  }
  const int64_t payload_bytes = static_cast<int64_t>((payload_bits + 7) / 8);
  byte_length = kRecordPrefixBytes + payload_bytes;
  record.object_id = static_cast<int64_t>(object_id);
  record.kind = static_cast<StreamKind>(kind);
  record.payload_bits = static_cast<int64_t>(payload_bits);
  record.payload.assign(p + kRecordPrefixBytes,
                        p + kRecordPrefixBytes + payload_bytes);
  return CheckStoredEnvelope(record.kind, record.payload, record.payload_bits)
      .ok();
}

// The first offset after `pos` at which a record verifies, or -1.
int64_t FindRecordAfter(std::span<const uint8_t> bytes, int64_t pos) {
  const int64_t size = static_cast<int64_t>(bytes.size());
  for (int64_t at = pos + 1; at + kRecordPrefixBytes <= size; ++at) {
    SegmentRecord record;
    int64_t length = 0;
    if (TryParseRecordAt(bytes, at, size, record, length)) return at;
  }
  return -1;
}

// Locates a valid seal trailer: returns its records-end offset, or -1.
int64_t FindSealTrailer(std::span<const uint8_t> bytes) {
  const int64_t size = static_cast<int64_t>(bytes.size());
  if (size < kTrailerBytes) return -1;
  const uint8_t* t = bytes.data() + (size - kTrailerBytes);
  if (Crc32c(t, 12) != static_cast<uint32_t>(LoadLe(t + 12, 4))) return -1;
  if (LoadLe(t + 8, 4) != kTrailerMagic) return -1;
  const uint64_t records_end = LoadLe(t, 8);
  return records_end > kMaxByteField ? -1
                                     : static_cast<int64_t>(records_end);
}

}  // namespace

int64_t SegmentRecordByteLength(int64_t payload_bits) {
  return kRecordPrefixBytes + (payload_bits + 7) / 8;
}

Status CheckStoredEnvelope(StreamKind kind, const std::vector<uint8_t>& bytes,
                           int64_t bit_count) {
  if (!StorableKind(kind)) {
    return InvalidArgumentError(
        "the store does not hold stream kind " +
        std::to_string(static_cast<int>(kind)));
  }
  if (bit_count < 0 ||
      static_cast<int64_t>(bytes.size()) != (bit_count + 7) / 8) {
    return InvalidArgumentError("store payload bytes do not match bit count");
  }
  BitReader reader(bytes);
  DCS_RETURN_IF_ERROR(ReadEnvelopePayload(kind, reader).status());
  if (reader.position() != bit_count) {
    return InvalidArgumentError(
        "store payload is not exactly one envelope of the declared kind");
  }
  return reader.TryReadZeroPadding();
}

void AppendSegmentRecord(const SegmentRecord& record,
                         std::vector<uint8_t>& out) {
  DCS_CHECK_GE(record.object_id, 0);
  DCS_CHECK_LE(static_cast<uint64_t>(record.object_id), kMaxObjectId);
  DCS_CHECK(StorableKind(record.kind));
  DCS_CHECK_GE(record.payload_bits, 0);
  DCS_CHECK_EQ(static_cast<int64_t>(record.payload.size()),
               (record.payload_bits + 7) / 8);
  BitWriter header;
  header.WriteBits(kRecordMagic, 16);
  header.WriteBits(static_cast<uint64_t>(record.object_id), 64);
  header.WriteBits(static_cast<uint64_t>(record.kind), 8);
  header.WriteBits(static_cast<uint64_t>(record.payload_bits), 64);
  header.WriteBits(Crc32c(header.bytes()), 32);
  const std::vector<uint8_t>& h = header.bytes();
  DCS_CHECK_EQ(static_cast<int64_t>(h.size()), kRecordPrefixBytes);
  out.insert(out.end(), h.begin(), h.end());
  out.insert(out.end(), record.payload.begin(), record.payload.end());
}

std::vector<uint8_t> BuildSegmentSeal(int64_t records_end) {
  DCS_CHECK_GE(records_end, 0);
  BitWriter trailer;
  trailer.WriteBits(static_cast<uint64_t>(records_end), 64);
  trailer.WriteBits(kTrailerMagic, 32);
  trailer.WriteBits(Crc32c(trailer.bytes()), 32);
  DCS_CHECK_EQ(static_cast<int64_t>(trailer.bytes().size()), kTrailerBytes);
  return trailer.bytes();
}

StatusOr<SegmentRecord> ParseSegmentRecord(const std::vector<uint8_t>& bytes) {
  SegmentRecord record;
  int64_t length = 0;
  const int64_t size = static_cast<int64_t>(bytes.size());
  if (!TryParseRecordAt(bytes, 0, size, record, length)) {
    return DataLossError("segment record does not verify");
  }
  if (length != size) {
    return DataLossError("segment record has trailing bytes");
  }
  return record;
}

StatusOr<SegmentScan> ScanSegment(std::span<const uint8_t> bytes) {
  const int64_t size = static_cast<int64_t>(bytes.size());
  // Checked first: an older layout's records fail the current magic (or
  // checksum) at byte 0, so the walk below would call the whole file a
  // torn tail and Open would truncate it.
  const uint64_t magic = size >= 2 ? LoadLe(bytes.data(), 2) : 0;
  if (std::ranges::find(kOlderRecordMagics, magic) !=
      std::end(kOlderRecordMagics)) {
    char hex[8];
    std::snprintf(hex, sizeof(hex), "0x%04llX",
                  static_cast<unsigned long long>(magic));
    return DataLossError(
        std::string("segment written by an older store layout (record "
                    "magic ") +
        hex + "); delete the store directory and re-register its objects");
  }
  SegmentScan scan;
  scan.image_bytes = size;
  const int64_t records_end = FindSealTrailer(bytes);
  if (records_end >= 0) {
    // Sealed segment: it was fsynced, so every byte before the trailer is
    // committed data. Any mismatch is corruption, never a tail.
    if (records_end != size - kTrailerBytes) {
      return DataLossError("sealed segment trailer says its records end at "
                           "byte " + std::to_string(records_end) +
                           " but the trailer starts at byte " +
                           std::to_string(size - kTrailerBytes));
    }
    scan.sealed = true;
    int64_t pos = 0;
    while (pos < records_end) {
      SegmentRecord record;
      int64_t length = 0;
      if (!TryParseRecordAt(bytes, pos, records_end, record, length)) {
        return DataLossError(
            "sealed segment record " + std::to_string(scan.records.size()) +
            " at byte " + std::to_string(pos) +
            " does not verify (corrupt beyond torn tail)");
      }
      scan.records.push_back(std::move(record));
      pos += length;
    }
    scan.valid_prefix_bytes = records_end;
    return scan;
  }
  int64_t pos = 0;
  while (pos < size) {
    SegmentRecord record;
    int64_t length = 0;
    if (!TryParseRecordAt(bytes, pos, size, record, length)) {
      // Whether the header or the payload failed, a torn write ends the
      // file (or is zero-filled), so it holds no later record: one that
      // verifies means committed data was damaged in place.
      const int64_t later = FindRecordAfter(bytes, pos);
      if (later >= 0) {
        return DataLossError(
            "segment record at byte " + std::to_string(pos) +
            " does not verify but the record at byte " +
            std::to_string(later) + " does (damage is not a torn tail)");
      }
      break;
    }
    scan.records.push_back(std::move(record));
    pos += length;
  }
  scan.valid_prefix_bytes = pos;
  scan.dropped_tail_bytes = size - pos;
  scan.recovered_torn_tail = scan.dropped_tail_bytes > 0;
  return scan;
}

}  // namespace dcs
