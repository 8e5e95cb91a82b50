#include "util/bitio.h"

#include <algorithm>
#include <cstring>

namespace dcs {
namespace {

// Returns `width` bits (width in [0, 64]) starting at bit `pos` of
// data[0, size), LSB first. The caller guarantees pos + width <= 8 * size;
// no byte past the last one holding a requested bit is touched.
uint64_t PeekBits(const uint8_t* data, size_t size, int64_t pos, int width) {
  if (width == 0) return 0;
  const size_t byte = static_cast<size_t>(pos >> 3);
  const int shift = static_cast<int>(pos & 7);
  uint64_t word = 0;
  if (size - byte >= 8) {
    word = LoadLe64(data + byte) >> shift;
    // A 64-bit field at a nonzero shift straddles a ninth byte.
    if (shift + width > 64) {
      word |= static_cast<uint64_t>(data[byte + 8]) << (64 - shift);
    }
  } else {
    for (size_t i = byte; i < size; ++i) {
      word |= static_cast<uint64_t>(data[i]) << (8 * (i - byte));
    }
    word >>= shift;
  }
  return word & LowMask(width);
}

// Writes `count` bits starting at bit `pos` of src[0, src_size) to the
// byte-aligned `dst`: exactly (count + 7) / 8 bytes, LSB first, final
// partial byte zero-padded.
void CopyBitsToAligned(const uint8_t* src, size_t src_size, int64_t pos,
                       int64_t count, uint8_t* dst) {
  if ((pos & 7) == 0) {
    const size_t whole = static_cast<size_t>(count >> 3);
    if (whole > 0) std::memcpy(dst, src + (pos >> 3), whole);
    const int tail = static_cast<int>(count & 7);
    if (tail > 0) {
      dst[whole] = static_cast<uint8_t>(src[(pos >> 3) + whole] &
                                        LowMask(tail));
    }
    return;
  }
  // Word shift: an output word is the source word at the cursor's byte
  // shifted down, or'd with the word one byte on shifted up (its top byte
  // holds the bits past the first word). 64 bits from a nonzero shift span
  // 9 source bytes, so both loads stay inside the buffer.
  const int shift = static_cast<int>(pos & 7);
  for (; count >= 64; count -= 64, pos += 64, dst += 8) {
    StoreLe64(dst, LoadShiftedLe64(src + (pos >> 3), shift));
  }
  if (count > 0) {
    const uint64_t tail = PeekBits(src, src_size, pos, static_cast<int>(count));
    for (int64_t i = 0; i < (count + 7) / 8; ++i) {
      dst[i] = static_cast<uint8_t>(tail >> (8 * i));
    }
  }
}

}  // namespace

void BitWriter::WriteBit(int bit) {
  DCS_DCHECK(bit == 0 || bit == 1);
  const int offset = static_cast<int>(bit_count_ & 7);
  if (offset == 0) bytes_.push_back(0);
  if (bit) bytes_.back() |= static_cast<uint8_t>(1u << offset);
  ++bit_count_;
}

void BitWriter::WriteBits(uint64_t value, int width) {
  DCS_CHECK_GE(width, 0);
  DCS_CHECK_LE(width, 64);
  if (width == 0) return;
  value &= LowMask(width);
  // The partial final byte's bits at and above the offset are still zero:
  // the field's low bits are or'd in there, and the rest are appended a
  // byte at a time into the vector's amortized capacity.
  const int offset = static_cast<int>(bit_count_ & 7);
  int placed = 0;
  if (offset != 0) {
    bytes_.back() |= static_cast<uint8_t>(value << offset);
    placed = 8 - offset;
  }
  bit_count_ += width;
  for (; placed < width; placed += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> placed));
  }
}

void BitWriter::WriteEliasGamma(uint64_t value) {
  DCS_CHECK_LT(value, UINT64_MAX);
  const int log = EliasGammaLog(value);
  if (2 * log + 1 <= 64) {
    WriteBits(EliasGammaWord(value, log), 2 * log + 1);
  } else {
    // `log` zeros and the leading 1, then the low `log` bits of value + 1
    // MSB-to-LSB (classic gamma order), i.e. bit-reversed in this LSB-first
    // stream.
    WriteBits(uint64_t{1} << log, log + 1);
    WriteBits(ReverseLowBits(value + 1, log), log);
  }
}

void BitWriter::WriteDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteBits(bits, 64);
}

void BitWriter::AppendBits(const std::vector<uint8_t>& bytes,
                           int64_t bit_count) {
  DCS_CHECK_GE(bit_count, 0);
  DCS_CHECK_LE(bit_count, static_cast<int64_t>(bytes.size()) * 8);
  // Top up the partial final byte so the rest lands byte-aligned.
  const int lead = static_cast<int>(
      std::min<int64_t>((8 - (bit_count_ & 7)) & 7, bit_count));
  WriteBits(PeekBits(bytes.data(), bytes.size(), 0, lead), lead);
  const int64_t rest = bit_count - lead;
  if (rest == 0) return;
  const size_t first = bytes_.size();
  bit_count_ += rest;
  bytes_.resize(static_cast<size_t>((bit_count_ + 7) >> 3));
  CopyBitsToAligned(bytes.data(), bytes.size(), lead, rest,
                    bytes_.data() + first);
}

uint64_t BitReader::Peek(int width) const {
  return PeekBits(bytes_->data(), bytes_->size(), position_, width);
}

int BitReader::ReadBit() {
  DCS_CHECK_LT(position_, limit_);
  const uint8_t byte = (*bytes_)[static_cast<size_t>(position_ >> 3)];
  const int bit = (byte >> (position_ & 7)) & 1;
  ++position_;
  return bit;
}

uint64_t BitReader::ReadBits(int width) {
  DCS_CHECK_GE(width, 0);
  DCS_CHECK_LE(width, 64);
  DCS_CHECK_LE(width, RemainingBits());
  const uint64_t value = Peek(width);
  position_ += width;
  return value;
}

uint64_t BitReader::ReadEliasGamma() {
  const StatusOr<uint64_t> value = TryReadEliasGamma();
  DCS_CHECK(value.ok());
  return *value;
}

double BitReader::ReadDouble() {
  const uint64_t bits = ReadBits(64);
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

StatusOr<int> BitReader::TryReadBit() {
  if (position_ >= limit_) {
    return DataLossError("bit stream truncated");
  }
  return ReadBit();
}

StatusOr<uint64_t> BitReader::TryReadBits(int width) {
  DCS_CHECK_GE(width, 0);
  DCS_CHECK_LE(width, 64);
  if (RemainingBits() < width) {
    return DataLossError("bit stream truncated");
  }
  const uint64_t value = Peek(width);
  position_ += width;
  return value;
}

StatusOr<uint64_t> BitReader::TryReadEliasGamma() {
  // One peek finds the zero prefix; on failure the cursor stops where the
  // failure shows: past the zeros consumed, or past the leading one.
  const int64_t remaining = RemainingBits();
  const int window_bits = static_cast<int>(std::min<int64_t>(64, remaining));
  const uint64_t window = Peek(window_bits);
  if (window == 0) {
    if (window_bits == 64) {
      position_ += 64;
      return DataLossError("Elias-gamma prefix longer than 64 bits");
    }
    position_ = limit_;
    return DataLossError("bit stream truncated");
  }
  const int log = __builtin_ctzll(window);
  const int code_bits = 2 * log + 1;
  position_ += log + 1;
  if (remaining < code_bits) return DataLossError("bit stream truncated");
  // Short codes sit wholly inside the window already peeked.
  const uint64_t low = code_bits <= 64 ? (window >> (log + 1)) & LowMask(log)
                                       : Peek(log);
  position_ += log;
  return ((uint64_t{1} << log) | (log == 0 ? 0 : ReverseLowBits(low, log))) -
         1;
}

StatusOr<double> BitReader::TryReadDouble() {
  DCS_ASSIGN_OR_RETURN(const uint64_t bits, TryReadBits(64));
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Status BitReader::TryReadBitsInto(int64_t bit_count,
                                  std::vector<uint8_t>& out) {
  DCS_CHECK_GE(bit_count, 0);
  if (RemainingBits() < bit_count) {
    return DataLossError("bit stream truncated");
  }
  out.assign(static_cast<size_t>((bit_count + 7) / 8), 0);
  CopyBitsToAligned(bytes_->data(), bytes_->size(), position_, bit_count,
                    out.data());
  position_ += bit_count;
  return OkStatus();
}

Status BitReader::TryReadZeroPadding() {
  const int64_t remaining = RemainingBits();
  if (remaining >= 8) return DataLossError("stream has trailing bytes");
  if (Peek(static_cast<int>(remaining)) != 0) {
    return DataLossError("stream has nonzero padding");
  }
  position_ = limit_;
  return OkStatus();
}

}  // namespace dcs
