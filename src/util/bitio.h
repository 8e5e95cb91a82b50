// Bit-exact serialization.
//
// Lower-bound experiments in this library are about *bits*: "any for-each
// cut sketch must output Ω̃(n√β/ε) bits". To make those statements
// measurable, every sketch serializes itself through a BitWriter, and the
// communication-game framework counts transcript lengths with the same
// machinery. BitWriter/BitReader pack little-endian within bytes and support
// fixed-width fields, Elias-gamma coded integers, and IEEE doubles.
//
// Cost model: every call moves its whole field at once — up to 64 bits per
// WriteBits/ReadBits, a whole Elias-gamma code per gamma call, and whole
// 64-bit words (a memcpy when byte-aligned) for AppendBits and
// TryReadBitsInto. Contract checks are one CHECK per call, never one per
// bit. The encoding itself is defined bit by bit and does not depend on how
// many bits a call moves.

#ifndef DCS_UTIL_BITIO_H_
#define DCS_UTIL_BITIO_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace dcs {

// Word helpers shared by BitWriter/BitReader and the codecs that move whole
// words of a BitWriter-layout stream themselves (sketch/serialization.cc's
// graph edge lists). Word loads and stores are little-endian, matching the
// stream's LSB-first byte order.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "bit I/O word access assumes a little-endian host");

inline uint64_t LowMask(int width) {
  return width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

inline uint64_t LoadLe64(const uint8_t* bytes) {
  uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

inline void StoreLe64(uint8_t* bytes, uint64_t word) {
  std::memcpy(bytes, &word, sizeof(word));
}

// The 64 stream bits that start `shift` bits (in [0, 8)) into `bytes`:
// reads bytes[0, 9), so nine bytes must be readable there.
inline uint64_t LoadShiftedLe64(const uint8_t* bytes, int shift) {
  // The word one byte on supplies the top `shift` bits; at shift 0 it
  // repeats bits the first word already holds.
  return (LoadLe64(bytes) >> shift) | (LoadLe64(bytes + 1) << (8 - shift));
}

// Reverses the order of the low `width` bits of `value` (width in [1, 64];
// bits above `width` are ignored). Elias-gamma payloads travel MSB first
// inside an LSB-first stream.
inline uint64_t ReverseLowBits(uint64_t value, int width) {
  value = ((value >> 1) & 0x5555555555555555ull) |
          ((value & 0x5555555555555555ull) << 1);
  value = ((value >> 2) & 0x3333333333333333ull) |
          ((value & 0x3333333333333333ull) << 2);
  value = ((value >> 4) & 0x0F0F0F0F0F0F0F0Full) |
          ((value & 0x0F0F0F0F0F0F0F0Full) << 4);
  return __builtin_bswap64(value) >> (64 - width);
}

// floor(log2(value + 1)) for value < UINT64_MAX: an Elias-gamma code of
// `value` is that many zeros, a one, and that many payload bits.
inline int EliasGammaLog(uint64_t value) {
  return 63 - __builtin_clzll(value + 1);
}

// The whole 2 * log + 1 bit Elias-gamma code of `value`, with
// log = EliasGammaLog(value) <= 31, as the stream lays it out LSB first:
// `log` zeros, the leading one, then the low `log` bits MSB first. That is
// value + 1 bit-reversed, shifted past the zeros.
inline uint64_t EliasGammaWord(uint64_t value, int log) {
  return ReverseLowBits(value + 1, log + 1) << log;
}

// Accumulates a bit stream. Bits are appended LSB-first within each byte.
class BitWriter {
 public:
  BitWriter() = default;

  // Appends a single bit (0 or 1).
  void WriteBit(int bit);

  // Appends the low `width` bits of `value`, LSB first. width in [0, 64];
  // bits of `value` above `width` are ignored.
  void WriteBits(uint64_t value, int width);

  // Appends a nonnegative integer with Elias-gamma coding (value + 1, so 0
  // is representable). Costs 2*floor(log2(value+1)) + 1 bits.
  void WriteEliasGamma(uint64_t value);

  // Appends a 64-bit IEEE-754 double (fixed 64 bits).
  void WriteDouble(double value);

  // Appends the first `bit_count` bits of another writer's packed bytes
  // (used to splice an independently built payload into an envelope).
  // Bits of `bytes` past `bit_count` are ignored.
  void AppendBits(const std::vector<uint8_t>& bytes, int64_t bit_count);

  // Total number of bits written so far.
  int64_t bit_count() const { return bit_count_; }

  // The packed bytes (final partial byte zero-padded).
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  int64_t bit_count_ = 0;
};

// Reads back a stream produced by BitWriter.
//
// Two read APIs share the cursor. The plain reads (ReadBit, ...) are for
// *trusted* streams the library itself just wrote — transcripts, in-process
// round trips — and CHECK-fail, once per call, when the field overruns the
// buffer. The Try reads are for *untrusted* bytes (anything that crossed a
// machine or file boundary): they return kDataLoss instead of aborting.
// A fixed-width Try read that fails leaves the cursor untouched; an
// Elias-gamma Try read leaves it where the failure was detected (past the
// zeros it consumed).
class BitReader {
 public:
  // The referenced buffer must outlive the reader.
  explicit BitReader(const std::vector<uint8_t>& bytes)
      : bytes_(&bytes), limit_(static_cast<int64_t>(bytes.size()) * 8) {}

  // Reads a single bit. CHECK-fails past the end of the stream.
  int ReadBit();

  // Reads `width` bits, LSB first. width in [0, 64].
  uint64_t ReadBits(int width);

  // Reads an Elias-gamma coded nonnegative integer.
  uint64_t ReadEliasGamma();

  // Reads a 64-bit IEEE-754 double.
  double ReadDouble();

  // Non-aborting variants for untrusted streams: kDataLoss on overrun (and,
  // for Elias gamma, on a run of zeros no finite code can start with).
  StatusOr<int> TryReadBit();
  StatusOr<uint64_t> TryReadBits(int width);
  StatusOr<uint64_t> TryReadEliasGamma();
  StatusOr<double> TryReadDouble();

  // Bulk read: replaces `out` with the next `bit_count` bits packed the way
  // BitWriter packs them — exactly (bit_count + 7) / 8 bytes, final partial
  // byte zero-padded — so `out` can be checksummed, parsed by a fresh
  // reader, or spliced with AppendBits. kDataLoss, with the cursor and
  // `out` untouched, if fewer than `bit_count` bits remain. `out` must not
  // be the buffer this reader reads.
  Status TryReadBitsInto(int64_t bit_count, std::vector<uint8_t>& out);

  // Consumes the zero padding that ends a byte-aligned stream: OK only if
  // fewer than 8 bits remain and all of them are zero. kDataLoss, with the
  // cursor untouched, otherwise (trailing bytes or a set pad bit).
  Status TryReadZeroPadding();

  // Number of bits consumed so far.
  int64_t position() const { return position_; }

  // Moves the cursor to bit `position`, in [0, the buffer's bit length].
  // Lets a caller decode a run of fields straight from the buffer's words
  // and hand the cursor back where it stopped.
  void Seek(int64_t position) {
    DCS_DCHECK(position >= 0 && position <= limit_);
    position_ = position;
  }

  // Number of unread bits (including any zero padding in the final byte).
  int64_t RemainingBits() const { return limit_ - position_; }

  // True once every bit, final-byte padding included, has been consumed.
  bool AtEnd() const { return position_ >= limit_; }

 private:
  // Returns the next `width` bits (width in [0, 64], within the buffer)
  // without moving the cursor.
  uint64_t Peek(int width) const;

  const std::vector<uint8_t>* bytes_;
  int64_t position_ = 0;
  int64_t limit_ = 0;
};

}  // namespace dcs

#endif  // DCS_UTIL_BITIO_H_
