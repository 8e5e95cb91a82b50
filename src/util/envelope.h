// The checksummed envelope every bit-exact format in the library wraps its
// payload in: magic (16 bits), version (8, always 2), kind (8), Elias-gamma
// payload bit count, CRC32C (32) over the padded payload bytes, payload.
// Version 1 carried FNV-1a-32 in the same field; a version-1 body is
// refused as an unsupported version, never checked with the old function.
// One writer and one hostile reader, parameterized by the caller's magic
// (DESIGN.md §7 lists them), so a body misfed to the wrong parser dies at
// the first field. The reader caps the declared length against the bits
// that remain before allocating; every failure is kDataLoss.

#ifndef DCS_UTIL_ENVELOPE_H_
#define DCS_UTIL_ENVELOPE_H_

#include <cstdint>
#include <vector>

#include "util/bitio.h"
#include "util/status.h"

namespace dcs {

// A validated envelope: its kind, the packed payload bits (final partial
// byte zero-padded, as BitWriter lays them out), and the CRC32C of those
// bytes that the header declared and the reader verified.
struct EnvelopePayload {
  uint64_t kind = 0;
  std::vector<uint8_t> bytes;
  int64_t bit_count = 0;
  uint32_t checksum = 0;
};

// Appends an envelope carrying `payload_bits` bits to `out`. `payload` is
// packed the way BitWriter packs it: exactly (payload_bits + 7) / 8 bytes,
// final partial byte zero-padded.
void AppendEnvelope(uint64_t magic, uint64_t kind,
                    const std::vector<uint8_t>& payload, int64_t payload_bits,
                    BitWriter& out);

// As above, sealed with `checksum`, the Crc32c of `payload` the caller
// already holds (an EnvelopedGraph's, say), so the payload is not hashed a
// second time. Debug builds verify it.
void AppendEnvelope(uint64_t magic, uint64_t kind,
                    const std::vector<uint8_t>& payload, int64_t payload_bits,
                    uint32_t checksum, BitWriter& out);

// Exact size in bits of an envelope carrying `payload_bits` payload bits.
int64_t EnvelopeSizeInBits(int64_t payload_bits);

// Reads one envelope with the given magic from `reader`: verifies magic,
// version, declared length (against the remaining stream) and checksum.
// The caller checks the kind.
StatusOr<EnvelopePayload> ReadEnvelope(uint64_t magic, BitReader& reader);

}  // namespace dcs

#endif  // DCS_UTIL_ENVELOPE_H_
