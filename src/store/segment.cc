#include "store/segment.h"

#include <cstring>
#include <string>

#include "util/check.h"
#include "util/checksum.h"

namespace dcs {
namespace {

// Record magic, distinct from the serialization envelope (0xD5CE), the
// channel frame (0xFA5C), the RPC envelope (0xA9C5), and the transport
// frame (0x57E4): a segment misfed to another parser (or vice versa) dies
// at the first header field.
constexpr uint64_t kRecordMagic = 0x5E60;
// Seal trailer magic: "SEAL" over the envelope magic.
constexpr uint64_t kTrailerMagic = 0x5EA1D5CE;

constexpr int64_t kRecordHeaderBytes = 19;  // magic + id + kind + bits
constexpr int64_t kRecordPrefixBytes =
    kRecordHeaderBytes + 4 + 4;             // + header FNV + payload FNV
constexpr int64_t kTrailerBytes = 16;

// Caps mirroring the transport's hostile-receiver rules: ids bounded like
// RPC object ids, offsets/lengths bounded so arithmetic cannot overflow.
constexpr uint64_t kMaxObjectId = uint64_t{1} << 32;
constexpr uint64_t kMaxByteField = uint64_t{1} << 62;
// Smallest index entry: 1-bit id + 8-bit kind + 1-bit offset + 1-bit
// length. Declared entry counts are capped against remaining/11.
constexpr int64_t kMinIndexEntryBits = 11;

uint64_t LoadLe(const uint8_t* bytes, int width_bytes) {
  uint64_t value = 0;
  for (int i = 0; i < width_bytes; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

bool ValidKind(uint64_t kind) {
  return kind >= static_cast<uint64_t>(StreamKind::kDirectedGraph) &&
         kind <= static_cast<uint64_t>(StreamKind::kSegmentIndex);
}

enum class RecordParse {
  kOk,
  // The header is unreadable (bad magic, bad header checksum, declared
  // length overruns the file): the record's extent cannot be trusted, so
  // everything from here on is a tail.
  kStructural,
  // The header is intact (extent known) but the payload fails its checksum
  // or pad check: this specific record is damaged.
  kCorrupt,
};

RecordParse TryParseRecordAt(const std::vector<uint8_t>& bytes, int64_t pos,
                             SegmentRecord& record, int64_t& byte_length) {
  const int64_t remaining = static_cast<int64_t>(bytes.size()) - pos;
  if (remaining < kRecordPrefixBytes) return RecordParse::kStructural;
  const uint8_t* p = bytes.data() + pos;
  if (LoadLe(p, 2) != kRecordMagic) return RecordParse::kStructural;
  const uint64_t object_id = LoadLe(p + 2, 8);
  const uint64_t kind = LoadLe(p + 10, 1);
  const uint64_t payload_bits = LoadLe(p + 11, 8);
  const uint32_t header_checksum = static_cast<uint32_t>(LoadLe(p + 19, 4));
  if (Fnv1a32(p, static_cast<size_t>(kRecordHeaderBytes)) !=
      header_checksum) {
    return RecordParse::kStructural;
  }
  // Header verified: the declared fields are what the writer wrote, but a
  // hostile writer could still declare absurd values — cap before use.
  if (object_id > kMaxObjectId || !ValidKind(kind)) {
    return RecordParse::kStructural;
  }
  const uint64_t payload_bytes = (payload_bits + 7) / 8;
  if (payload_bits > kMaxByteField ||
      payload_bytes >
          static_cast<uint64_t>(remaining - kRecordPrefixBytes)) {
    return RecordParse::kStructural;
  }
  byte_length = kRecordPrefixBytes + static_cast<int64_t>(payload_bytes);
  const uint32_t payload_checksum = static_cast<uint32_t>(LoadLe(p + 23, 4));
  const uint8_t* payload = p + kRecordPrefixBytes;
  if (Fnv1a32(payload, static_cast<size_t>(payload_bytes)) !=
      payload_checksum) {
    return RecordParse::kCorrupt;
  }
  // Zero-pad enforcement: bits past payload_bits in the final byte must be
  // zero, exactly as BitWriter emits them.
  if (payload_bits % 8 != 0) {
    const uint8_t last = payload[payload_bytes - 1];
    if ((last >> (payload_bits % 8)) != 0) return RecordParse::kCorrupt;
  }
  record.object_id = static_cast<int64_t>(object_id);
  record.kind = static_cast<StreamKind>(kind);
  record.payload_bits = static_cast<int64_t>(payload_bits);
  record.payload.assign(payload, payload + payload_bytes);
  return RecordParse::kOk;
}

// Locates a valid seal trailer: returns the footer byte offset, or -1.
int64_t FindSealTrailer(const std::vector<uint8_t>& bytes) {
  const int64_t size = static_cast<int64_t>(bytes.size());
  if (size < kTrailerBytes) return -1;
  const uint8_t* t = bytes.data() + (size - kTrailerBytes);
  if (Fnv1a32(t, 12) != static_cast<uint32_t>(LoadLe(t + 12, 4))) return -1;
  if (LoadLe(t + 8, 4) != kTrailerMagic) return -1;
  const uint64_t footer_offset = LoadLe(t, 8);
  if (footer_offset >= static_cast<uint64_t>(size - kTrailerBytes)) {
    return -1;
  }
  return static_cast<int64_t>(footer_offset);
}

// Parses the footer region [footer_offset, size - trailer) as an index
// envelope zero-padded to a byte. Any failure is kDataLoss.
StatusOr<std::vector<SegmentIndexEntry>> ParseFooterRegion(
    const std::vector<uint8_t>& bytes, int64_t footer_offset) {
  const int64_t end = static_cast<int64_t>(bytes.size()) - kTrailerBytes;
  const std::vector<uint8_t> region(bytes.begin() + footer_offset,
                                    bytes.begin() + end);
  BitReader reader(region);
  DCS_ASSIGN_OR_RETURN(const EnvelopePayload payload,
                       ReadEnvelopePayload(StreamKind::kSegmentIndex, reader));
  BitReader payload_reader(payload.bytes);
  DCS_ASSIGN_OR_RETURN(std::vector<SegmentIndexEntry> entries,
                       ParseSegmentIndexPayload(payload_reader));
  if (payload_reader.position() != payload.bit_count) {
    return DataLossError("segment index payload has trailing bits");
  }
  DCS_RETURN_IF_ERROR(reader.TryReadZeroPadding());
  return entries;
}

}  // namespace

int64_t SegmentRecordByteLength(int64_t payload_bits) {
  return kRecordPrefixBytes + (payload_bits + 7) / 8;
}

void AppendSegmentRecord(const SegmentRecord& record,
                         std::vector<uint8_t>& out) {
  DCS_CHECK_GE(record.object_id, 0);
  DCS_CHECK_LE(static_cast<uint64_t>(record.object_id), kMaxObjectId);
  DCS_CHECK(ValidKind(static_cast<uint64_t>(record.kind)));
  DCS_CHECK_GE(record.payload_bits, 0);
  DCS_CHECK_EQ(static_cast<int64_t>(record.payload.size()),
               (record.payload_bits + 7) / 8);
  BitWriter header;
  header.WriteBits(kRecordMagic, 16);
  header.WriteBits(static_cast<uint64_t>(record.object_id), 64);
  header.WriteBits(static_cast<uint64_t>(record.kind), 8);
  header.WriteBits(static_cast<uint64_t>(record.payload_bits), 64);
  const std::vector<uint8_t>& h = header.bytes();
  DCS_CHECK_EQ(static_cast<int64_t>(h.size()), kRecordHeaderBytes);
  out.insert(out.end(), h.begin(), h.end());
  BitWriter checksums;
  checksums.WriteBits(Fnv1a32(h), 32);
  checksums.WriteBits(Fnv1a32(record.payload), 32);
  out.insert(out.end(), checksums.bytes().begin(), checksums.bytes().end());
  out.insert(out.end(), record.payload.begin(), record.payload.end());
}

void WriteSegmentIndexEnvelope(const std::vector<SegmentIndexEntry>& entries,
                               BitWriter& out) {
  BitWriter payload;
  payload.WriteEliasGamma(entries.size());
  for (const SegmentIndexEntry& entry : entries) {
    DCS_CHECK_GE(entry.object_id, 0);
    DCS_CHECK_GE(entry.byte_offset, 0);
    DCS_CHECK_GE(entry.byte_length, 0);
    payload.WriteEliasGamma(static_cast<uint64_t>(entry.object_id));
    payload.WriteBits(static_cast<uint64_t>(entry.kind), 8);
    payload.WriteEliasGamma(static_cast<uint64_t>(entry.byte_offset));
    payload.WriteEliasGamma(static_cast<uint64_t>(entry.byte_length));
  }
  WriteEnvelope(StreamKind::kSegmentIndex, payload, out);
}

StatusOr<std::vector<SegmentIndexEntry>> ParseSegmentIndexPayload(
    BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(const uint64_t count, reader.TryReadEliasGamma());
  // Pre-allocation cap: a hostile index cannot force a huge allocation —
  // the declared count must fit in the bits that actually remain.
  if (count > static_cast<uint64_t>(reader.RemainingBits() /
                                    kMinIndexEntryBits)) {
    return DataLossError("segment index declares " + std::to_string(count) +
                         " entries but only " +
                         std::to_string(reader.RemainingBits()) +
                         " payload bits remain");
  }
  std::vector<SegmentIndexEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    DCS_ASSIGN_OR_RETURN(const uint64_t object_id,
                         reader.TryReadEliasGamma());
    DCS_ASSIGN_OR_RETURN(const uint64_t kind, reader.TryReadBits(8));
    DCS_ASSIGN_OR_RETURN(const uint64_t offset, reader.TryReadEliasGamma());
    DCS_ASSIGN_OR_RETURN(const uint64_t length, reader.TryReadEliasGamma());
    if (object_id > kMaxObjectId || !ValidKind(kind) ||
        offset > kMaxByteField || length > kMaxByteField) {
      return DataLossError("segment index entry " + std::to_string(i) +
                           " is out of range");
    }
    SegmentIndexEntry entry;
    entry.object_id = static_cast<int64_t>(object_id);
    entry.kind = static_cast<StreamKind>(kind);
    entry.byte_offset = static_cast<int64_t>(offset);
    entry.byte_length = static_cast<int64_t>(length);
    entries.push_back(entry);
  }
  return entries;
}

std::vector<uint8_t> BuildSegmentSeal(
    const std::vector<SegmentIndexEntry>& entries, int64_t footer_offset) {
  DCS_CHECK_GE(footer_offset, 0);
  std::vector<uint8_t> out;
  BitWriter footer;
  WriteSegmentIndexEnvelope(entries, footer);
  out.insert(out.end(), footer.bytes().begin(), footer.bytes().end());
  BitWriter trailer;
  trailer.WriteBits(static_cast<uint64_t>(footer_offset), 64);
  trailer.WriteBits(kTrailerMagic, 32);
  const std::vector<uint8_t>& t = trailer.bytes();
  DCS_CHECK_EQ(t.size(), 12u);
  BitWriter checksum;
  checksum.WriteBits(Fnv1a32(t), 32);
  out.insert(out.end(), t.begin(), t.end());
  out.insert(out.end(), checksum.bytes().begin(), checksum.bytes().end());
  return out;
}

void AppendSegmentSeal(const std::vector<SegmentIndexEntry>& entries,
                       std::vector<uint8_t>& out) {
  const std::vector<uint8_t> seal =
      BuildSegmentSeal(entries, static_cast<int64_t>(out.size()));
  out.insert(out.end(), seal.begin(), seal.end());
}

StatusOr<SegmentRecord> ParseSegmentRecord(const std::vector<uint8_t>& bytes) {
  SegmentRecord record;
  int64_t length = 0;
  if (TryParseRecordAt(bytes, 0, record, length) != RecordParse::kOk) {
    return DataLossError("segment record does not verify");
  }
  if (length != static_cast<int64_t>(bytes.size())) {
    return DataLossError("segment record has trailing bytes");
  }
  return record;
}

StatusOr<SegmentScan> ScanSegment(const std::vector<uint8_t>& bytes) {
  const int64_t size = static_cast<int64_t>(bytes.size());
  const int64_t footer_offset = FindSealTrailer(bytes);
  if (footer_offset >= 0) {
    auto entries = ParseFooterRegion(bytes, footer_offset);
    if (entries.ok()) {
      // Sealed segment: the footer was fsynced, so every record it points
      // at is committed data. Any mismatch is corruption, never a tail.
      SegmentScan scan;
      scan.sealed = true;
      int64_t pos = 0;
      for (size_t i = 0; i < entries->size(); ++i) {
        const SegmentIndexEntry& entry = (*entries)[i];
        SegmentRecord record;
        int64_t length = 0;
        if (entry.byte_offset != pos ||
            TryParseRecordAt(bytes, pos, record, length) !=
                RecordParse::kOk ||
            length != entry.byte_length ||
            record.object_id != entry.object_id ||
            record.kind != entry.kind) {
          return DataLossError(
              "sealed segment record " + std::to_string(i) +
              " does not match its index entry (corrupt beyond torn tail)");
        }
        scan.records.push_back(std::move(record));
        pos += length;
      }
      if (pos != footer_offset) {
        return DataLossError(
            "sealed segment has unindexed bytes before its footer");
      }
      scan.valid_prefix_bytes = pos;
      return scan;
    }
    // The trailer validated but the footer it points at does not parse:
    // the seal itself is damaged. Fall through to the unsealed walk — the
    // records are still individually checksummed, and cutting the broken
    // seal off is a recovery, not data loss.
  }
  SegmentScan scan;
  int64_t pos = 0;
  int64_t good_prefix_end = 0;
  int64_t first_bad = -1;  // offset of the first damaged-but-sized record
  while (pos < size) {
    SegmentRecord record;
    int64_t length = 0;
    const RecordParse parsed = TryParseRecordAt(bytes, pos, record, length);
    if (parsed == RecordParse::kStructural) break;
    if (parsed == RecordParse::kCorrupt) {
      // Keep walking: if anything valid follows, the damage is mid-file.
      if (first_bad < 0) first_bad = pos;
      pos += length;
      continue;
    }
    if (first_bad >= 0) {
      return DataLossError(
          "segment record at byte " + std::to_string(first_bad) +
          " is corrupt but later records are intact (damage is not a "
          "torn tail)");
    }
    scan.records.push_back(std::move(record));
    pos += length;
    good_prefix_end = pos;
  }
  scan.valid_prefix_bytes = good_prefix_end;
  scan.dropped_tail_bytes = size - good_prefix_end;
  scan.recovered_torn_tail = scan.dropped_tail_bytes > 0;
  return scan;
}

}  // namespace dcs
