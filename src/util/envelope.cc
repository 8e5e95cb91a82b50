#include "util/envelope.h"

#include <string>

#include "util/checksum.h"

namespace dcs {
namespace {

// 2 since the checksum field became CRC32C (version 1 held FNV-1a-32).
constexpr uint64_t kEnvelopeVersion = 2;

// Magic, version, kind, and checksum: the fixed-width header fields.
constexpr int64_t kFixedHeaderBits = 16 + 8 + 8 + 32;

}  // namespace

void AppendEnvelope(uint64_t magic, uint64_t kind,
                    const std::vector<uint8_t>& payload, int64_t payload_bits,
                    BitWriter& out) {
  AppendEnvelope(magic, kind, payload, payload_bits, Crc32c(payload), out);
}

void AppendEnvelope(uint64_t magic, uint64_t kind,
                    const std::vector<uint8_t>& payload, int64_t payload_bits,
                    uint32_t checksum, BitWriter& out) {
  DCS_CHECK_GE(payload_bits, 0);
  DCS_CHECK_EQ(static_cast<int64_t>(payload.size()), (payload_bits + 7) / 8);
  DCS_DCHECK(checksum == Crc32c(payload));
  out.WriteBits(magic, 16);
  out.WriteBits(kEnvelopeVersion, 8);
  out.WriteBits(kind, 8);
  out.WriteEliasGamma(static_cast<uint64_t>(payload_bits));
  out.WriteBits(checksum, 32);
  out.AppendBits(payload, payload_bits);
}

int64_t EnvelopeSizeInBits(int64_t payload_bits) {
  DCS_CHECK_GE(payload_bits, 0);
  const int log = EliasGammaLog(static_cast<uint64_t>(payload_bits));
  return kFixedHeaderBits + 2 * log + 1 + payload_bits;
}

StatusOr<EnvelopePayload> ReadEnvelope(uint64_t magic, BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(const uint64_t found_magic, reader.TryReadBits(16));
  if (found_magic != magic) {
    return DataLossError("bad envelope magic " + std::to_string(found_magic) +
                         " (expected " + std::to_string(magic) + ")");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t version, reader.TryReadBits(8));
  if (version != kEnvelopeVersion) {
    return DataLossError("unsupported envelope version " +
                         std::to_string(version));
  }
  EnvelopePayload envelope;
  DCS_ASSIGN_OR_RETURN(envelope.kind, reader.TryReadBits(8));
  DCS_ASSIGN_OR_RETURN(const uint64_t bit_count, reader.TryReadEliasGamma());
  if (reader.RemainingBits() < 32 ||
      bit_count > static_cast<uint64_t>(reader.RemainingBits() - 32)) {
    return DataLossError("envelope declares " + std::to_string(bit_count) +
                         " payload bits but the stream is shorter");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t checksum, reader.TryReadBits(32));
  envelope.bit_count = static_cast<int64_t>(bit_count);
  DCS_RETURN_IF_ERROR(
      reader.TryReadBitsInto(envelope.bit_count, envelope.bytes));
  if (Crc32c(envelope.bytes) != checksum) {
    return DataLossError("envelope checksum mismatch (corrupted payload)");
  }
  envelope.checksum = static_cast<uint32_t>(checksum);
  return envelope;
}

}  // namespace dcs
