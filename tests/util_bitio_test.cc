#include "util/bitio.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "fnv1a.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/wire.h"
#include "sketch/serialization.h"
#include "util/checksum.h"
#include "util/envelope.h"
#include "util/random.h"

namespace dcs {
namespace {

// The encoding's definition, one bit at a time: the reference the
// word-at-a-time BitWriter/BitReader must match byte for byte.
class ReferenceWriter {
 public:
  void Bit(int bit) {
    if (bit_count_ % 8 == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<uint8_t>(1u << (bit_count_ % 8));
    ++bit_count_;
  }
  void Bits(uint64_t value, int width) {
    for (int i = 0; i < width; ++i) Bit(static_cast<int>((value >> i) & 1));
  }
  void Gamma(uint64_t value) {
    const uint64_t shifted = value + 1;
    int log = 63;
    while (((shifted >> log) & 1) == 0) --log;
    for (int i = 0; i < log; ++i) Bit(0);
    Bit(1);
    for (int i = log - 1; i >= 0; --i) {
      Bit(static_cast<int>((shifted >> i) & 1));
    }
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  int64_t bit_count() const { return bit_count_; }

 private:
  std::vector<uint8_t> bytes_;
  int64_t bit_count_ = 0;
};

int ReferenceBit(const std::vector<uint8_t>& bytes, int64_t pos) {
  return (bytes[static_cast<size_t>(pos >> 3)] >> (pos & 7)) & 1;
}

uint64_t LowBits(uint64_t value, int width) {
  return width == 64 ? value : value & ((uint64_t{1} << width) - 1);
}

// An exact-size copy: no spare capacity past the last byte, so an
// over-read in the word loads is a heap overflow ASan reports.
std::vector<uint8_t> Exact(const std::vector<uint8_t>& bytes) {
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

TEST(BitIoTest, SingleBits) {
  BitWriter writer;
  writer.WriteBit(1);
  writer.WriteBit(0);
  writer.WriteBit(1);
  EXPECT_EQ(writer.bit_count(), 3);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadBit(), 1);
  EXPECT_EQ(reader.ReadBit(), 0);
  EXPECT_EQ(reader.ReadBit(), 1);
}

TEST(BitIoTest, FixedWidthRoundTrip) {
  BitWriter writer;
  writer.WriteBits(0xDEADBEEFCAFEULL, 48);
  writer.WriteBits(5, 3);
  EXPECT_EQ(writer.bit_count(), 51);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadBits(48), 0xDEADBEEFCAFEULL);
  EXPECT_EQ(reader.ReadBits(3), 5u);
}

TEST(BitIoTest, ZeroWidthWritesNothing) {
  BitWriter writer;
  writer.WriteBits(123, 0);
  EXPECT_EQ(writer.bit_count(), 0);
}

TEST(BitIoTest, SixtyFourBitRoundTrip) {
  BitWriter writer;
  writer.WriteBits(std::numeric_limits<uint64_t>::max(), 64);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadBits(64), std::numeric_limits<uint64_t>::max());
}

TEST(BitIoTest, EliasGammaSmallValues) {
  BitWriter writer;
  for (uint64_t v = 0; v < 20; ++v) writer.WriteEliasGamma(v);
  BitReader reader(writer.bytes());
  for (uint64_t v = 0; v < 20; ++v) {
    EXPECT_EQ(reader.ReadEliasGamma(), v);
  }
}

TEST(BitIoTest, EliasGammaLengths) {
  // gamma(v) costs 2*floor(log2(v+1)) + 1 bits.
  for (const auto& [value, expected_bits] :
       std::vector<std::pair<uint64_t, int64_t>>{
           {0, 1}, {1, 3}, {2, 3}, {3, 5}, {6, 5}, {7, 7}, {1000, 19}}) {
    BitWriter writer;
    writer.WriteEliasGamma(value);
    EXPECT_EQ(writer.bit_count(), expected_bits) << "value=" << value;
  }
}

TEST(BitIoTest, EliasGammaLargeValuesRoundTrip) {
  Rng rng(123);
  BitWriter writer;
  std::vector<uint64_t> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.Next() >> (rng.Next() % 40));
    writer.WriteEliasGamma(values.back());
  }
  BitReader reader(writer.bytes());
  for (uint64_t v : values) {
    EXPECT_EQ(reader.ReadEliasGamma(), v);
  }
}

TEST(BitIoTest, DoubleRoundTrip) {
  BitWriter writer;
  const std::vector<double> values = {0.0,  -1.5, 3.14159,
                                      1e300, -2.5e-10,
                                      std::numeric_limits<double>::infinity()};
  for (double v : values) writer.WriteDouble(v);
  EXPECT_EQ(writer.bit_count(), static_cast<int64_t>(values.size()) * 64);
  BitReader reader(writer.bytes());
  for (double v : values) {
    EXPECT_EQ(reader.ReadDouble(), v);
  }
}

TEST(BitIoTest, NanRoundTripsBitExactly) {
  BitWriter writer;
  writer.WriteDouble(std::nan(""));
  BitReader reader(writer.bytes());
  EXPECT_TRUE(std::isnan(reader.ReadDouble()));
}

TEST(BitIoTest, MixedStreamRoundTrip) {
  Rng rng(77);
  BitWriter writer;
  struct Record {
    int bit;
    uint64_t gamma;
    uint64_t fixed;
    double real;
  };
  std::vector<Record> records;
  for (int i = 0; i < 100; ++i) {
    Record r;
    r.bit = static_cast<int>(rng.Next() & 1);
    r.gamma = rng.UniformInt(100000);
    r.fixed = rng.UniformInt(1 << 20);
    r.real = rng.Normal();
    records.push_back(r);
    writer.WriteBit(r.bit);
    writer.WriteEliasGamma(r.gamma);
    writer.WriteBits(r.fixed, 20);
    writer.WriteDouble(r.real);
  }
  BitReader reader(writer.bytes());
  for (const Record& r : records) {
    EXPECT_EQ(reader.ReadBit(), r.bit);
    EXPECT_EQ(reader.ReadEliasGamma(), r.gamma);
    EXPECT_EQ(reader.ReadBits(20), r.fixed);
    EXPECT_EQ(reader.ReadDouble(), r.real);
  }
  EXPECT_EQ(reader.position(), writer.bit_count());
}

TEST(BitIoTest, PositionTracksReads) {
  BitWriter writer;
  writer.WriteBits(0b101, 3);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.position(), 0);
  reader.ReadBit();
  EXPECT_EQ(reader.position(), 1);
  reader.ReadBits(2);
  EXPECT_EQ(reader.position(), 3);
}

TEST(BitIoDeathTest, ReadPastEndChecks) {
  BitWriter writer;
  writer.WriteBit(1);
  BitReader reader(writer.bytes());
  reader.ReadBits(8);  // padding bits within the final byte are readable
  EXPECT_DEATH(reader.ReadBit(), "CHECK");
}

TEST(BitIoTryTest, TryReadsMatchTrustedReads) {
  BitWriter writer;
  writer.WriteBit(1);
  writer.WriteBits(0xABCD, 16);
  writer.WriteEliasGamma(12345);
  writer.WriteDouble(-2.75);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.TryReadBit().value(), 1);
  EXPECT_EQ(reader.TryReadBits(16).value(), 0xABCDu);
  EXPECT_EQ(reader.TryReadEliasGamma().value(), 12345u);
  EXPECT_EQ(reader.TryReadDouble().value(), -2.75);
  EXPECT_EQ(reader.position(), writer.bit_count());
}

TEST(BitIoTryTest, OverrunReturnsDataLossNotAbort) {
  const std::vector<uint8_t> empty;
  BitReader reader(empty);
  EXPECT_EQ(reader.TryReadBit().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader.TryReadBits(8).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader.TryReadEliasGamma().status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(reader.TryReadDouble().status().code(), StatusCode::kDataLoss);
}

TEST(BitIoTryTest, TruncatedDoubleReturnsDataLoss) {
  BitWriter writer;
  writer.WriteBits(0, 40);  // only 40 of the 64 bits a double needs
  BitReader reader(writer.bytes());
  const auto result = reader.TryReadDouble();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(BitIoTryTest, AllZeroGammaPrefixReturnsDataLoss) {
  // A run of zeros longer than any finite Elias-gamma prefix: corrupted
  // data, not an overrun, but still kDataLoss (no valid code starts here).
  BitWriter writer;
  for (int i = 0; i < 80; ++i) writer.WriteBit(0);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.TryReadEliasGamma().status().code(),
            StatusCode::kDataLoss);
}

TEST(BitIoTryTest, RemainingBitsTracksCursor) {
  BitWriter writer;
  writer.WriteBits(0, 16);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.RemainingBits(), 16);
  ASSERT_TRUE(reader.TryReadBits(5).ok());
  EXPECT_EQ(reader.RemainingBits(), 11);
  ASSERT_TRUE(reader.TryReadBits(11).ok());
  EXPECT_EQ(reader.RemainingBits(), 0);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BitIoTest, AppendBitsSplicesPayload) {
  BitWriter payload;
  payload.WriteEliasGamma(99);
  payload.WriteBits(0b1011, 4);
  BitWriter outer;
  outer.WriteBits(0b101, 3);  // misaligned on purpose
  outer.AppendBits(payload.bytes(), payload.bit_count());
  EXPECT_EQ(outer.bit_count(), 3 + payload.bit_count());
  BitReader reader(outer.bytes());
  EXPECT_EQ(reader.ReadBits(3), 0b101u);
  EXPECT_EQ(reader.ReadEliasGamma(), 99u);
  EXPECT_EQ(reader.ReadBits(4), 0b1011u);
}

TEST(BitIoTest, AppendBitsEmptyIsNoop) {
  BitWriter outer;
  outer.WriteBit(1);
  const BitWriter empty;
  outer.AppendBits(empty.bytes(), 0);
  EXPECT_EQ(outer.bit_count(), 1);
}

TEST(BitIoDifferentialTest, EveryWidthAtEveryOffsetMatchesReference) {
  Rng rng(5);
  for (int offset = 0; offset < 8; ++offset) {
    for (int width = 0; width <= 64; ++width) {
      for (const int trailer : {0, 70}) {
        // Garbage above `width` must be ignored by the writer.
        const uint64_t value = rng.Next();
        const uint64_t lead = rng.Next();
        BitWriter writer;
        ReferenceWriter reference;
        writer.WriteBits(lead, offset);
        reference.Bits(lead, offset);
        writer.WriteBits(value, width);
        reference.Bits(value, width);
        for (int i = 0; i < trailer; ++i) {
          writer.WriteBit(i & 1);
          reference.Bit(i & 1);
        }
        ASSERT_EQ(writer.bytes(), reference.bytes())
            << "offset " << offset << " width " << width;
        ASSERT_EQ(writer.bit_count(), reference.bit_count());

        const std::vector<uint8_t> bytes = Exact(writer.bytes());
        BitReader reader(bytes);
        ASSERT_EQ(reader.ReadBits(offset), LowBits(lead, offset));
        ASSERT_EQ(reader.ReadBits(width), LowBits(value, width))
            << "offset " << offset << " width " << width;
        BitReader try_reader(bytes);
        ASSERT_TRUE(try_reader.TryReadBits(offset).ok());
        ASSERT_EQ(try_reader.TryReadBits(width).value(), LowBits(value, width));
        ASSERT_EQ(try_reader.position(), offset + width);
      }
    }
  }
}

TEST(BitIoDifferentialTest, EliasGammaEdgeValuesMatchReference) {
  std::vector<uint64_t> values = {0, std::numeric_limits<uint64_t>::max() - 1};
  for (int k = 1; k < 64; ++k) {
    const uint64_t power = uint64_t{1} << k;
    values.insert(values.end(), {power - 2, power - 1, power});
  }
  for (int offset = 0; offset < 8; ++offset) {
    for (const uint64_t value : values) {
      BitWriter writer;
      ReferenceWriter reference;
      writer.WriteBits(0x5A, offset);
      reference.Bits(0x5A, offset);
      writer.WriteEliasGamma(value);
      reference.Gamma(value);
      ASSERT_EQ(writer.bytes(), reference.bytes())
          << "offset " << offset << " value " << value;
      ASSERT_EQ(writer.bit_count(), reference.bit_count());

      // The code ends the buffer, so decoding runs into its final bytes.
      const std::vector<uint8_t> bytes = Exact(writer.bytes());
      BitReader reader(bytes);
      reader.ReadBits(offset);
      ASSERT_EQ(reader.ReadEliasGamma(), value) << "offset " << offset;
      ASSERT_EQ(reader.position(), writer.bit_count());
      BitReader try_reader(bytes);
      try_reader.ReadBits(offset);
      ASSERT_EQ(try_reader.TryReadEliasGamma().value(), value);
      ASSERT_EQ(try_reader.position(), writer.bit_count());
    }
  }
}

TEST(BitIoDifferentialTest, BulkCopiesMatchReferenceAtEveryAlignment) {
  Rng rng(11);
  for (int64_t length = 0; length <= 130; ++length) {
    for (int source_offset = 0; source_offset < 8; ++source_offset) {
      // Random bits everywhere, so a copy that reads past `length` or
      // fails to zero-pad shows up as a byte mismatch.
      std::vector<uint8_t> source(
          static_cast<size_t>((source_offset + length + 7) / 8 + 2));
      for (auto& byte : source) byte = static_cast<uint8_t>(rng.Next());
      const std::vector<uint8_t> exact_source = Exact(source);

      ReferenceWriter expected_chunk;
      for (int64_t b = 0; b < length; ++b) {
        expected_chunk.Bit(ReferenceBit(source, source_offset + b));
      }
      BitReader reader(exact_source);
      reader.ReadBits(source_offset);
      std::vector<uint8_t> chunk = {0xFF, 0xFF, 0xFF};
      ASSERT_TRUE(reader.TryReadBitsInto(length, chunk).ok());
      ASSERT_EQ(chunk, expected_chunk.bytes())
          << "length " << length << " source offset " << source_offset;
      ASSERT_EQ(reader.position(), source_offset + length);

      for (int dest_offset = 0; dest_offset < 8; ++dest_offset) {
        BitWriter writer;
        ReferenceWriter reference;
        writer.WriteBits(0x3C, dest_offset);
        reference.Bits(0x3C, dest_offset);
        // Append straight from the unmasked source: bits past `length`
        // must not leak into the output.
        writer.AppendBits(exact_source, length);
        for (int64_t b = 0; b < length; ++b) {
          reference.Bit(ReferenceBit(source, b));
        }
        ASSERT_EQ(writer.bytes(), reference.bytes())
            << "length " << length << " dest offset " << dest_offset;
        ASSERT_EQ(writer.bit_count(), reference.bit_count());
        // A follow-up field lands right after the spliced bits.
        writer.WriteBits(0b101, 3);
        reference.Bits(0b101, 3);
        ASSERT_EQ(writer.bytes(), reference.bytes());
      }
    }
  }
}

TEST(BitIoDifferentialTest, WordShiftCopiesMatchReferenceAtEveryShift) {
  // TryReadBitsInto at a nonzero shift moves two overlapping word loads per
  // output word while 9 source bytes remain, then falls back to the tail
  // path: lengths around both boundaries and one restart-sized envelope,
  // read from exact-size sources and from sources with spare bytes.
  std::vector<int64_t> lengths;
  for (int64_t length = 0; length <= 200; ++length) lengths.push_back(length);
  lengths.insert(lengths.end(), {4095, 4096, 4097, 176000});
  Rng rng(23);
  for (const int64_t length : lengths) {
    for (int shift = 0; shift < 8; ++shift) {
      for (const int64_t spare_bytes : {0, 1, 9}) {
        std::vector<uint8_t> source(
            static_cast<size_t>((shift + length + 7) / 8 + spare_bytes));
        for (auto& byte : source) byte = static_cast<uint8_t>(rng.Next());
        const std::vector<uint8_t> exact_source = Exact(source);
        ReferenceWriter expected;
        for (int64_t b = 0; b < length; ++b) {
          expected.Bit(ReferenceBit(source, shift + b));
        }
        BitReader reader(exact_source);
        reader.ReadBits(shift);
        std::vector<uint8_t> out;
        ASSERT_TRUE(reader.TryReadBitsInto(length, out).ok());
        ASSERT_EQ(out, expected.bytes())
            << "length " << length << " shift " << shift << " spare "
            << spare_bytes;
        ASSERT_EQ(reader.position(), shift + length);
      }
    }
  }
}

TEST(BitIoDifferentialTest, RandomWriteSequencesMatchReferenceAtEveryStart) {
  // Seeded random mixes of every write call, from every starting bit
  // offset: after each call the writer's bytes and bit count must equal
  // the one-bit-at-a-time reference's. Values carry garbage above their
  // width, and spliced sources carry garbage past their length.
  Rng rng(29);
  for (int start = 0; start < 8; ++start) {
    for (int sequence = 0; sequence < 100; ++sequence) {
      BitWriter writer;
      ReferenceWriter reference;
      const uint64_t lead = rng.Next();
      writer.WriteBits(lead, start);
      reference.Bits(lead, start);
      const int calls = 1 + static_cast<int>(rng.UniformInt(40));
      for (int call = 0; call < calls; ++call) {
        const uint64_t op = rng.UniformInt(5);
        if (op == 0) {
          const int bit = static_cast<int>(rng.UniformInt(2));
          writer.WriteBit(bit);
          reference.Bit(bit);
        } else if (op == 1) {
          const int width = static_cast<int>(rng.UniformInt(65));
          const uint64_t value = rng.Next();
          writer.WriteBits(value, width);
          reference.Bits(value, width);
        } else if (op == 2) {
          const uint64_t value = std::min(
              rng.Next() >> rng.UniformInt(64),
              std::numeric_limits<uint64_t>::max() - 1);
          writer.WriteEliasGamma(value);
          reference.Gamma(value);
        } else if (op == 3) {
          const uint64_t bits = rng.Next();
          double value = 0;
          std::memcpy(&value, &bits, sizeof(value));
          writer.WriteDouble(value);
          reference.Bits(bits, 64);
        } else {
          const int64_t length = static_cast<int64_t>(rng.UniformInt(200));
          std::vector<uint8_t> source(
              static_cast<size_t>((length + 7) / 8 + rng.UniformInt(3)));
          for (auto& byte : source) byte = static_cast<uint8_t>(rng.Next());
          writer.AppendBits(Exact(source), length);
          for (int64_t b = 0; b < length; ++b) {
            reference.Bit(ReferenceBit(source, b));
          }
        }
        ASSERT_EQ(writer.bytes(), reference.bytes())
            << "start " << start << " sequence " << sequence << " call "
            << call << " op " << op;
        ASSERT_EQ(writer.bit_count(), reference.bit_count());
      }
    }
  }
}

TEST(BitIoDifferentialTest, TruncationStillReturnsDataLoss) {
  // gamma(1000) is 19 bits — 9 zeros, a one, 9 payload bits — after a
  // 5-bit lead, so byte cuts land inside the prefix and inside the payload.
  BitWriter writer;
  writer.WriteBits(0, 5);
  writer.WriteEliasGamma(1000);
  ASSERT_EQ(writer.bit_count(), 24);
  const std::vector<uint8_t> full = Exact(writer.bytes());
  for (const auto& [keep_bytes, stop] :
       std::vector<std::pair<size_t, int64_t>>{{1, 8}, {2, 15}}) {
    const std::vector<uint8_t> cut(full.begin(), full.begin() + keep_bytes);
    BitReader reader(cut);
    reader.ReadBits(5);
    EXPECT_EQ(reader.TryReadEliasGamma().status().code(),
              StatusCode::kDataLoss)
        << keep_bytes;
    // The cursor stops where the failure was detected: past the prefix
    // zeros it consumed, or past the code's leading one.
    EXPECT_EQ(reader.position(), stop) << keep_bytes;
  }
  // A long code (payload read with a second word load) cut in its payload.
  BitWriter long_writer;
  long_writer.WriteEliasGamma(uint64_t{1} << 40);
  ASSERT_EQ(long_writer.bit_count(), 81);
  const std::vector<uint8_t> long_cut(long_writer.bytes().begin(),
                                      long_writer.bytes().begin() + 9);
  BitReader long_reader(long_cut);
  EXPECT_EQ(long_reader.TryReadEliasGamma().status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(long_reader.position(), 41);

  const std::vector<uint8_t> one_byte = {0x00};
  BitReader short_reader(one_byte);
  ASSERT_TRUE(short_reader.TryReadBits(3).ok());
  EXPECT_EQ(short_reader.TryReadBits(6).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(short_reader.position(), 3);  // a failed fixed read moves nothing
  EXPECT_EQ(short_reader.TryReadDouble().status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(short_reader.position(), 3);
}

TEST(BitIoDifferentialTest, SixtyFourZeroGammaPrefixIsDataLoss) {
  // Exactly 64 zeros, then a one: no gamma code has a 64-zero prefix.
  BitWriter writer;
  writer.WriteBits(0, 64);
  writer.WriteBits(1, 1);
  const std::vector<uint8_t> bytes = Exact(writer.bytes());
  BitReader reader(bytes);
  EXPECT_EQ(reader.TryReadEliasGamma().status().code(),
            StatusCode::kDataLoss);
  // 63 zeros is the longest legal prefix: the code for UINT64_MAX - 1.
  BitWriter longest;
  longest.WriteEliasGamma(std::numeric_limits<uint64_t>::max() - 1);
  ASSERT_EQ(longest.bit_count(), 127);
  const std::vector<uint8_t> longest_bytes = Exact(longest.bytes());
  BitReader longest_reader(longest_bytes);
  EXPECT_EQ(longest_reader.TryReadEliasGamma().value(),
            std::numeric_limits<uint64_t>::max() - 1);
}

TEST(BitIoDifferentialTest, TryReadBitsIntoOverrunLeavesCursorAndOutput) {
  BitWriter writer;
  writer.WriteBits(0xABCDEF, 24);
  const std::vector<uint8_t> bytes = Exact(writer.bytes());
  BitReader reader(bytes);
  ASSERT_TRUE(reader.TryReadBits(5).ok());
  std::vector<uint8_t> out = {7, 8, 9};
  const Status status = reader.TryReadBitsInto(20, out);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader.position(), 5);
  EXPECT_EQ(out, (std::vector<uint8_t>{7, 8, 9}));
  // Exactly the remaining bits is not an overrun.
  ASSERT_TRUE(reader.TryReadBitsInto(19, out).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(out.size(), 3u);
}

TEST(BitIoTest, TryReadZeroPaddingAcceptsOnlyAShortZeroTail) {
  for (int remaining = 0; remaining < 8; ++remaining) {
    // Two bytes with the cursor `remaining` bits before the end: an
    // all-zero tail is consumed, a set bit anywhere in it is kDataLoss.
    const std::vector<uint8_t> zero_tail = {0xFF, 0x00};
    BitReader clean(zero_tail);
    ASSERT_TRUE(clean.TryReadBits(16 - remaining).ok());
    EXPECT_TRUE(clean.TryReadZeroPadding().ok()) << "remaining " << remaining;
    EXPECT_TRUE(clean.AtEnd());
    for (int bit = 16 - remaining; bit < 16; ++bit) {
      std::vector<uint8_t> dirty = zero_tail;
      dirty[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      BitReader reader(dirty);
      ASSERT_TRUE(reader.TryReadBits(16 - remaining).ok());
      EXPECT_EQ(reader.TryReadZeroPadding().code(), StatusCode::kDataLoss)
          << "remaining " << remaining << ", set bit " << bit;
      EXPECT_EQ(reader.position(), 16 - remaining);
    }
  }
  for (int remaining = 8; remaining <= 16; ++remaining) {
    const std::vector<uint8_t> zero = {0x00, 0x00};
    BitReader reader(zero);
    ASSERT_TRUE(reader.TryReadBits(16 - remaining).ok());
    EXPECT_EQ(reader.TryReadZeroPadding().code(), StatusCode::kDataLoss)
        << "remaining " << remaining;
    EXPECT_EQ(reader.position(), 16 - remaining);
  }
}

TEST(EnvelopeTest, SizeInBitsMatchesTheWriterAndTheReaderRoundTrips) {
  // Payload lengths on both sides of every Elias-gamma length step the
  // header can take here, so EnvelopeSizeInBits is checked where the
  // length field grows.
  for (const int64_t bits :
       {0, 1, 2, 3, 6, 7, 8, 9, 62, 63, 64, 127, 128, 1000, 32767, 32768}) {
    BitWriter payload;
    for (int64_t b = 0; b < bits; ++b) payload.WriteBit(b % 3 == 0);
    BitWriter out;
    AppendEnvelope(0x1234, 7, payload.bytes(), payload.bit_count(), out);
    EXPECT_EQ(out.bit_count(), EnvelopeSizeInBits(bits)) << bits;
    const std::vector<uint8_t> bytes = Exact(out.bytes());
    BitReader reader(bytes);
    const auto envelope = ReadEnvelope(0x1234, reader);
    ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
    EXPECT_EQ(envelope->kind, 7u);
    EXPECT_EQ(envelope->bit_count, bits);
    EXPECT_EQ(envelope->bytes, payload.bytes());
    EXPECT_EQ(reader.position(), out.bit_count());
    BitReader wrong_magic(bytes);
    EXPECT_EQ(ReadEnvelope(0x1235, wrong_magic).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(ChecksumTest, Fnv1a32MatchesPublishedVectors) {
  const std::string empty;
  const std::string a = "a";
  const std::string foobar = "foobar";
  auto fnv = [](const std::string& text) {
    return Fnv1a32(reinterpret_cast<const uint8_t*>(text.data()),
                   text.size());
  };
  EXPECT_EQ(fnv(empty), 0x811C9DC5u);
  EXPECT_EQ(fnv(a), 0xE40C292Cu);
  EXPECT_EQ(fnv(foobar), 0xBF9CF968u);
  const std::vector<uint8_t> bytes(foobar.begin(), foobar.end());
  EXPECT_EQ(Fnv1a32(bytes), 0xBF9CF968u);
}

// The validated envelope at the front of `bytes`.
EnvelopePayload OpenEnvelope(uint64_t magic, const std::vector<uint8_t>& bytes) {
  BitReader reader(bytes);
  StatusOr<EnvelopePayload> opened = ReadEnvelope(magic, reader);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(*opened) : EnvelopePayload{};
}

// Pins byte identity of the wire formats. The stream fingerprints (FNV-1a
// over whole bodies) and the CRC32C checksum fields were recorded from the
// version-2 envelope. The payload pins are FNV-1a over each innermost
// envelope payload and equal the FNV-1a checksum field the version-1
// envelope carried over those bytes: switching the checksum moved no
// payload bit. The innermost payloads' FNV-1a goes back to the per-bit
// codec, so any change to what the word-at-a-time codec emits fails here,
// not just in a round trip.
TEST(BitIoGoldenTest, FixedSeedStreamsKeepTheirBytes) {
  constexpr uint64_t kSerializationMagic = 0xD5CE;
  constexpr uint64_t kRpcMagic = 0xA9C5;
  Rng rng(31337);
  const DirectedGraph graph = RandomBalancedDigraph(96, 0.2, 2.0, rng);
  BitWriter envelope;
  SerializeDirectedGraph(graph, envelope);
  EXPECT_EQ(envelope.bit_count(), 172997);
  EXPECT_EQ(Fnv1a32(envelope.bytes()), 0xEA40D760u);
  const EnvelopePayload graph_payload =
      OpenEnvelope(kSerializationMagic, envelope.bytes());
  EXPECT_EQ(graph_payload.checksum, 0x5D4E2A95u);
  EXPECT_EQ(Fnv1a32(graph_payload.bytes), 0x31576203u);

  RpcRequest query;
  query.kind = RpcKind::kQueryBatch;
  query.object_id = 9;
  query.num_vertices = 77;
  for (int q = 0; q < 13; ++q) {
    VertexSet side(77, 0);
    for (auto& bit : side) bit = rng.Bernoulli(0.5) ? 1 : 0;
    query.sides.push_back(std::move(side));
  }
  const Message query_body = EncodeRpcRequest(query);
  EXPECT_EQ(query_body.bit_count, 1113);
  EXPECT_EQ(Fnv1a32(query_body.bytes), 0x7B581246u);
  const EnvelopePayload query_payload =
      OpenEnvelope(kRpcMagic, query_body.bytes);
  EXPECT_EQ(query_payload.checksum, 0xCA0896FDu);
  EXPECT_EQ(Fnv1a32(query_payload.bytes), 0x7B457F6Fu);

  // A register body's payload is the graph's envelope, so its innermost
  // payload is the graph payload above.
  RpcRequest registration;
  registration.kind = RpcKind::kRegisterGraph;
  registration.graph = graph;
  const Message registration_body = EncodeRpcRequest(registration);
  EXPECT_EQ(registration_body.bit_count, 173096);
  EXPECT_EQ(Fnv1a32(registration_body.bytes), 0x0BC28F8Au);
  const EnvelopePayload registration_payload =
      OpenEnvelope(kRpcMagic, registration_body.bytes);
  EXPECT_EQ(registration_payload.checksum, Crc32c(envelope.bytes()));
  const EnvelopePayload registered_graph =
      OpenEnvelope(kSerializationMagic, registration_payload.bytes);
  EXPECT_EQ(registered_graph.checksum, graph_payload.checksum);
  EXPECT_EQ(Fnv1a32(registered_graph.bytes), 0x31576203u);

  RpcResponse response;
  response.status = ResourceExhaustedError("queue full");
  response.server_token = 0x0123456789ABCDEFULL;
  response.object_id = 4;
  for (int i = 0; i < 5; ++i) response.values.push_back(rng.UniformDouble());
  const Message response_body = EncodeRpcResponse(response);
  EXPECT_EQ(response_body.bit_count, 570);
  EXPECT_EQ(Fnv1a32(response_body.bytes), 0x7384016Cu);
  const EnvelopePayload response_payload =
      OpenEnvelope(kRpcMagic, response_body.bytes);
  EXPECT_EQ(response_payload.checksum, 0xAE951F4Du);
  EXPECT_EQ(Fnv1a32(response_payload.bytes), 0x5D53587Au);
}

}  // namespace
}  // namespace dcs
