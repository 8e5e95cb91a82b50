// Property tests for the runtime SIMD dispatch layer (src/util/simd.h).
//
// The layer's contract is bit-identity: every dispatched kernel must return
// exactly the bytes the scalar reference returns, at every size including
// non-multiple-of-lane tails. These tests pin that contract for the int64
// FWHT and row butterfly, the 2-D EncodeSigns transform, the CutWeights
// lane add, the CRC32C checksum, and a served batch on every dispatch path
// the CPU has (scalar, avx2, avx512 or neon); they also check the Hadamard
// row writer that feeds the decoders against the entry definition.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/types.h"
#include "gtest/gtest.h"
#include "serve/cut_query_service.h"
#include "simd_paths.h"
#include "util/hadamard.h"
#include "util/random.h"
#include "util/simd.h"

namespace dcs {
namespace {

std::vector<int64_t> RandomI64(size_t n, Rng& rng) {
  std::vector<int64_t> values(n);
  for (auto& v : values) {
    v = static_cast<int64_t>(rng.Next() % 2001) - 1000;
  }
  return values;
}

// O(n²) reference transform straight from the definition.
std::vector<int64_t> NaiveFwht(const std::vector<int64_t>& values) {
  const size_t n = values.size();
  std::vector<int64_t> out(n, 0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      const int sign =
          (std::popcount(static_cast<unsigned>(r) & static_cast<unsigned>(c)) &
           1)
              ? -1
              : 1;
      out[r] += sign * values[c];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ForcePathOverridesTheDefault) {
  const simd::DispatchPath default_path = simd::ActivePath();
  {
    ScopedPath guard(simd::DispatchPath::kScalar);
    EXPECT_EQ(simd::ActivePath(), simd::DispatchPath::kScalar);
  }
  EXPECT_EQ(simd::ActivePath(), default_path);
}

// The default is the best path the CPU has (scalar under
// DCS_FORCE_SCALAR), and a path the CPU lacks pins the best one below it.
TEST(SimdDispatchTest, PathsAreClampedToTheCpu) {
  using simd::DispatchPath;
  const std::vector<DispatchPath> paths = SupportedPaths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), DispatchPath::kScalar);
  const auto has = [&](DispatchPath path) {
    return std::find(paths.begin(), paths.end(), path) != paths.end();
  };
  EXPECT_TRUE(!has(DispatchPath::kAvx512) || has(DispatchPath::kAvx2));
  EXPECT_FALSE(has(DispatchPath::kAvx2) && has(DispatchPath::kNeon));
#if defined(__x86_64__)
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2");
  EXPECT_EQ(has(DispatchPath::kAvx2), avx2);
  EXPECT_EQ(has(DispatchPath::kAvx512),
            avx2 && __builtin_cpu_supports("avx512f"));
#endif
  const char* env = std::getenv("DCS_FORCE_SCALAR");
  const bool forced =
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  EXPECT_EQ(simd::ActivePath(), forced ? DispatchPath::kScalar : paths.back());
  for (const DispatchPath path :
       {DispatchPath::kScalar, DispatchPath::kAvx2, DispatchPath::kAvx512,
        DispatchPath::kNeon}) {
    ScopedPath guard(path);
    const DispatchPath expected =
        has(path) ? path
        : path == DispatchPath::kAvx512 && has(DispatchPath::kAvx2)
            ? DispatchPath::kAvx2
            : DispatchPath::kScalar;
    EXPECT_EQ(simd::ActivePath(), expected) << simd::DispatchPathName(path);
  }
}

TEST(SimdDispatchTest, PathNamesAreStable) {
  EXPECT_STREQ(simd::DispatchPathName(simd::DispatchPath::kScalar), "scalar");
  EXPECT_STREQ(simd::DispatchPathName(simd::DispatchPath::kAvx2), "avx2");
  EXPECT_STREQ(simd::DispatchPathName(simd::DispatchPath::kAvx512), "avx512");
  EXPECT_STREQ(simd::DispatchPathName(simd::DispatchPath::kNeon), "neon");
}

// ---------------------------------------------------------------------------
// FWHT bit-identity: dispatched vs scalar reference
// ---------------------------------------------------------------------------

TEST(SimdFwhtTest, MatchesNaiveTransformSmall) {
  Rng rng(7);
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16},
                   size_t{64}, size_t{256}}) {
    std::vector<int64_t> values = RandomI64(n, rng);
    const std::vector<int64_t> expected = NaiveFwht(values);
    simd::Fwht(values.data(), n);
    EXPECT_EQ(values, expected) << "n=" << n;
  }
}

TEST(SimdFwhtTest, Int64BitIdenticalToScalarAllPowerOfTwoSizes) {
  Rng rng(13);
  for (int log_n = 0; log_n <= 16; ++log_n) {
    const size_t n = size_t{1} << log_n;
    const std::vector<int64_t> input = RandomI64(n, rng);
    std::vector<int64_t> dispatched = input;
    std::vector<int64_t> reference = input;
    simd::Fwht(dispatched.data(), n);
    simd::scalar::Fwht(reference.data(), n);
    ASSERT_EQ(dispatched, reference) << "n=" << n;
  }
}

TEST(SimdFwhtTest, ButterflyRowsMatchesScalar) {
  Rng rng(23);
  for (const size_t n : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                         size_t{64}, size_t{1000}}) {
    const std::vector<int64_t> lo_in = RandomI64(n, rng);
    const std::vector<int64_t> hi_in = RandomI64(n, rng);
    std::vector<int64_t> lo_a = lo_in, hi_a = hi_in;
    std::vector<int64_t> lo_b = lo_in, hi_b = hi_in;
    simd::ButterflyRows(lo_a.data(), hi_a.data(), n);
    simd::scalar::ButterflyRows(lo_b.data(), hi_b.data(), n);
    EXPECT_EQ(lo_a, lo_b) << "n=" << n;
    EXPECT_EQ(hi_a, hi_b) << "n=" << n;
  }
}

TEST(SimdFwhtTest, ForcedScalarFwhtMatchesHardwarePath) {
  Rng rng(29);
  const size_t n = 4096;
  const std::vector<int64_t> input = RandomI64(n, rng);
  std::vector<int64_t> hardware = input;
  simd::Fwht(hardware.data(), n);
  std::vector<int64_t> forced = input;
  {
    ScopedPath guard(simd::DispatchPath::kScalar);
    simd::Fwht(forced.data(), n);
  }
  EXPECT_EQ(hardware, forced);
}

// ---------------------------------------------------------------------------
// Hadamard row writers
// ---------------------------------------------------------------------------

TEST(SimdHadamardRowTest, RowMatchesEntryDefinition) {
  for (const int log_size : {0, 1, 3, 6, 7, 10}) {
    const HadamardMatrix h(log_size);
    for (int row = 0; row < h.size(); row += std::max(1, h.size() / 7)) {
      const std::vector<int8_t> signs = h.Row(row);
      ASSERT_EQ(static_cast<int>(signs.size()), h.size());
      for (int col = 0; col < h.size(); ++col) {
        ASSERT_EQ(signs[static_cast<size_t>(col)], h.Entry(row, col))
            << "log=" << log_size << " row=" << row << " col=" << col;
      }
    }
  }
}

// Every row, below one sign word (log 0-5), at exactly one (log 6) and
// above it (log 7-8, where odd high overlaps complement the word).
TEST(SimdHadamardRowTest, RowSignsIntoMatchesEntryDefinition) {
  for (const int log_size : {0, 2, 5, 6, 7, 8}) {
    const HadamardMatrix h(log_size);
    std::vector<int8_t> scratch(static_cast<size_t>(h.size()));
    for (int row = 0; row < h.size(); ++row) {
      HadamardRowSignsInto(row, log_size, scratch);
      for (int col = 0; col < h.size(); ++col) {
        ASSERT_EQ(scratch[static_cast<size_t>(col)], h.Entry(row, col))
            << "log=" << log_size << " row=" << row << " col=" << col;
      }
    }
  }
}

TEST(SimdHadamardRowTest, FactorIntoMatchesFactor) {
  const TensorSignMatrix tensor(4);
  std::vector<int8_t> scratch(static_cast<size_t>(tensor.block_size()));
  for (int64_t t = 0; t < tensor.rows(); t += 7) {
    tensor.LeftFactorInto(t, scratch);
    EXPECT_EQ(scratch, tensor.LeftFactor(t)) << t;
    tensor.RightFactorInto(t, scratch);
    EXPECT_EQ(scratch, tensor.RightFactor(t)) << t;
  }
}

// ---------------------------------------------------------------------------
// EncodeSigns: 2-D transform identical across dispatch paths
// ---------------------------------------------------------------------------

TEST(SimdEncodeSignsTest, ScalarAndDispatchedEncodeIdentically) {
  Rng rng(41);
  for (const int log_size : {1, 2, 4, 6}) {
    const TensorSignMatrix tensor(log_size);
    const std::vector<int8_t> z =
        rng.RandomSignString(static_cast<int>(tensor.rows()));
    const std::vector<int64_t> dispatched = tensor.EncodeSigns(z);
    std::vector<int64_t> forced;
    {
      ScopedPath guard(simd::DispatchPath::kScalar);
      forced = tensor.EncodeSigns(z);
    }
    EXPECT_EQ(dispatched, forced) << "log_size=" << log_size;
    // And both satisfy the defining identity ⟨x, M_t⟩ = z_t · N².
    for (int64_t t = 0; t < tensor.rows(); t += std::max<int64_t>(
             1, tensor.rows() / 5)) {
      EXPECT_EQ(tensor.InnerProductWithRow(dispatched, t),
                z[static_cast<size_t>(t)] * tensor.RowNormSquared())
          << "log_size=" << log_size << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// AddCrossingLanes (the CutWeights lane add)
// ---------------------------------------------------------------------------

// Weights mixing the values a lane add could get wrong: signed zeros,
// denormals and magnitudes that overflow when summed, among ordinary ones.
std::vector<double> LaneWeights(size_t count, Rng& rng) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double special[] = {0.0,   -0.0,   1e308,          -1e308,
                            denormal, -7 * denormal,
                            std::numeric_limits<double>::min() / 3, 0.1};
  std::vector<double> weights(count);
  for (auto& w : weights) {
    w = rng.Bernoulli(0.5)
            ? special[rng.UniformInt(std::size(special))]
            : (static_cast<double>(rng.Next() % 20001) - 10000.0) / 7.0;
  }
  return weights;
}

// The definition, one lane at a time.
void NaiveAddCrossingLanes(double* sums, size_t lanes,
                           const uint64_t* crossing, const double* weights,
                           size_t count) {
  for (size_t k = 0; k < count; ++k) {
    for (size_t j = 0; j < lanes; ++j) {
      if ((crossing[k] >> j) & 1) sums[j] += weights[k];
    }
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Crossing masks of kMaxLaneCount entries each: none, all, and random.
constexpr size_t kMaxLaneCount = 300;

std::vector<std::vector<uint64_t>> LaneMasks(Rng& rng) {
  std::vector<uint64_t> random_masks(kMaxLaneCount);
  for (auto& mask : random_masks) mask = rng.Next();
  return {std::vector<uint64_t>(kMaxLaneCount, 0),
          std::vector<uint64_t>(kMaxLaneCount, ~uint64_t{0}), random_masks};
}

// The dispatched kernel against the scalar reference from `initial` sums,
// for every lanes 1–64 and count 0–300 under each mask.
void ExpectEveryShapeMatchesScalar(
    const std::vector<double>& initial, const std::vector<double>& weights,
    const std::vector<std::vector<uint64_t>>& masks) {
  for (size_t lanes = 1; lanes <= 64; ++lanes) {
    for (size_t count = 0; count <= kMaxLaneCount; ++count) {
      for (size_t m = 0; m < masks.size(); ++m) {
        std::vector<double> scalar = initial;
        std::vector<double> dispatched = initial;
        simd::scalar::AddCrossingLanes(scalar.data(), lanes, masks[m].data(),
                                       weights.data(), count);
        simd::AddCrossingLanes(dispatched.data(), lanes, masks[m].data(),
                               weights.data(), count);
        ASSERT_TRUE(SameBits(scalar, dispatched))
            << simd::DispatchPathName(simd::ActivePath()) << " lanes "
            << lanes << " count " << count << " mask " << m;
      }
    }
  }
}

TEST(SimdLaneAddTest, DispatchedMatchesScalarForEveryShape) {
  Rng rng(53);
  const std::vector<double> weights = LaneWeights(kMaxLaneCount, rng);
  const std::vector<std::vector<uint64_t>> masks = LaneMasks(rng);
  // All 64 slots: lanes >= `lanes` hold their initial values afterwards.
  // No initial sum is −0.0 (the avx2 kernel's precondition).
  std::vector<double> initial(64);
  for (size_t j = 0; j < initial.size(); ++j) {
    initial[j] = j % 3 == 0 ? 0.0 : static_cast<double>(j) * 1.25 - 40.0;
  }
  for (const simd::DispatchPath path : SupportedPaths()) {
    ScopedPath guard(path);
    ExpectEveryShapeMatchesScalar(initial, weights, masks);
  }
}

// The merge-masked kernel leaves an uncrossed lane untouched, so sums that
// start at −0.0 or a signaling NaN come out as the scalar reference's.
TEST(SimdLaneAddTest, MaskedPathNeedsNoPrecondition) {
  ScopedPath guard(simd::DispatchPath::kAvx512);
  if (simd::ActivePath() != simd::DispatchPath::kAvx512) {
    GTEST_SKIP() << "no avx512 path on this CPU";
  }
  Rng rng(71);
  const std::vector<double> weights = LaneWeights(kMaxLaneCount, rng);
  const std::vector<std::vector<uint64_t>> masks = LaneMasks(rng);
  std::vector<double> initial(64);
  for (size_t j = 0; j < initial.size(); ++j) {
    initial[j] = j % 3 == 0   ? -0.0
                 : j % 7 == 1 ? std::numeric_limits<double>::signaling_NaN()
                              : static_cast<double>(j) * 1.25 - 40.0;
  }
  ExpectEveryShapeMatchesScalar(initial, weights, masks);
  // A −0.0 lane crossed by no entry is still −0.0.
  std::vector<double> sums(64, -0.0);
  const uint64_t crossing[] = {0x00FF00FF00FF00FFULL};
  const double weight[] = {2.5};
  simd::AddCrossingLanes(sums.data(), 64, crossing, weight, 1);
  for (size_t j = 0; j < sums.size(); ++j) {
    EXPECT_EQ(std::signbit(sums[j]), ((crossing[0] >> j) & 1) == 0) << j;
  }
}

TEST(SimdLaneAddTest, ScalarMatchesTheDefinition) {
  Rng rng(59);
  for (const size_t lanes : {1, 3, 4, 5, 31, 32, 33, 63, 64}) {
    const std::vector<double> weights = LaneWeights(200, rng);
    std::vector<uint64_t> crossing(200);
    for (auto& mask : crossing) mask = rng.Next();
    std::vector<double> scalar(64, 0.0);
    std::vector<double> naive(64, 0.0);
    simd::scalar::AddCrossingLanes(scalar.data(), lanes, crossing.data(),
                                   weights.data(), crossing.size());
    NaiveAddCrossingLanes(naive.data(), lanes, crossing.data(),
                          weights.data(), crossing.size());
    EXPECT_TRUE(SameBits(scalar, naive)) << "lanes " << lanes;
  }
}

TEST(SimdLaneAddTest, BitsAtOrAboveLanesAreIgnored) {
  Rng rng(61);
  const std::vector<double> weights = LaneWeights(100, rng);
  std::vector<uint64_t> crossing(100);
  for (auto& mask : crossing) mask = rng.Next();
  for (const size_t lanes : {1, 4, 5, 17, 32, 33, 63}) {
    std::vector<uint64_t> clipped = crossing;
    for (auto& mask : clipped) mask &= (uint64_t{1} << lanes) - 1;
    for (const simd::DispatchPath path : SupportedPaths()) {
      ScopedPath guard(path);
      // Slots past `lanes` hold a sentinel the kernel must not touch.
      std::vector<double> full(64, 0.0);
      std::vector<double> masked(64, 0.0);
      std::fill(full.begin() + static_cast<ptrdiff_t>(lanes), full.end(),
                -123.5);
      std::fill(masked.begin() + static_cast<ptrdiff_t>(lanes), masked.end(),
                -123.5);
      simd::AddCrossingLanes(full.data(), lanes, crossing.data(),
                             weights.data(), crossing.size());
      simd::AddCrossingLanes(masked.data(), lanes, clipped.data(),
                             weights.data(), clipped.size());
      EXPECT_TRUE(SameBits(full, masked))
          << "lanes " << lanes << " path " << simd::DispatchPathName(path);
    }
  }
}

// The precondition CutWeights relies on for the avx2 path: sums that start
// at +0.0 never become −0.0, however many −0.0 weights or exact
// cancellations they see, so the +0.0 that path adds to uncrossed lanes
// changes no bit.
TEST(SimdLaneAddTest, SumsStartingAtPositiveZeroNeverBecomeNegativeZero) {
  Rng rng(67);
  const double choices[] = {-0.0, 0.0, 1.5, -1.5};
  std::vector<double> weights(256);
  for (auto& w : weights) w = choices[rng.UniformInt(std::size(choices))];
  std::vector<uint64_t> crossing(256);
  for (auto& mask : crossing) mask = rng.Next() & rng.Next();
  std::vector<double> scalar(64, 0.0);
  simd::scalar::AddCrossingLanes(scalar.data(), 64, crossing.data(),
                                 weights.data(), crossing.size());
  for (const simd::DispatchPath path : SupportedPaths()) {
    ScopedPath guard(path);
    std::vector<double> dispatched(64, 0.0);
    simd::AddCrossingLanes(dispatched.data(), 64, crossing.data(),
                           weights.data(), crossing.size());
    EXPECT_TRUE(SameBits(scalar, dispatched)) << simd::DispatchPathName(path);
  }
  int zero_sums = 0;
  for (const double sum : scalar) {
    EXPECT_FALSE(std::signbit(sum) && sum == 0.0);
    zero_sums += sum == 0.0;
  }
  EXPECT_GT(zero_sums, 0);  // the case the precondition is about occurred
}

// ---------------------------------------------------------------------------
// CRC32C: published vectors, the definition, and scalar vs dispatched
// ---------------------------------------------------------------------------

// The bit-at-a-time definition: reflected polynomial 0x82F63B78, initial
// value and final XOR 0xFFFFFFFF.
uint32_t BitwiseCrc32c(const uint8_t* bytes, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, Rng& rng) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(SimdCrc32cTest, MatchesRfc3720Vectors) {
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const std::string digits = "123456789";
  const struct {
    std::vector<uint8_t> bytes;
    uint32_t crc;
  } vectors[] = {
      {std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {std::vector<uint8_t>(digits.begin(), digits.end()), 0xE3069283u},
      {{}, 0x00000000u},
  };
  for (const simd::DispatchPath path : SupportedPaths()) {
    ScopedPath guard(path);
    for (const auto& v : vectors) {
      EXPECT_EQ(simd::Crc32c(v.bytes.data(), v.bytes.size()), v.crc)
          << simd::DispatchPathName(path) << ", " << v.bytes.size()
          << " bytes";
      EXPECT_EQ(simd::scalar::Crc32c(v.bytes.data(), v.bytes.size()), v.crc);
    }
  }
}

TEST(SimdCrc32cTest, ScalarMatchesTheDefinition) {
  Rng rng(59);
  const std::vector<uint8_t> bytes = RandomBytes(300, rng);
  for (size_t len = 0; len <= 300; ++len) {
    ASSERT_EQ(simd::scalar::Crc32c(bytes.data(), len),
              BitwiseCrc32c(bytes.data(), len))
        << "length " << len;
  }
}

// Every length 0-256 from every start offset 0-7, so each 8-byte load and
// each tail length is taken at every alignment, and a 22,114-byte buffer
// (one n = 128, m = 2048 graph envelope).
TEST(SimdCrc32cTest, DispatchedMatchesScalarAtEveryLengthAndOffset) {
  Rng rng(61);
  const std::vector<uint8_t> small = RandomBytes(256 + 8, rng);
  const std::vector<uint8_t> large = RandomBytes(22114, rng);
  // The hardware path's CRC, then the forced-scalar dispatch's and the
  // scalar reference's, which must all agree.
  const auto paths_agree = [](const uint8_t* bytes, size_t len) {
    const uint32_t hardware = simd::Crc32c(bytes, len);
    ScopedPath guard(simd::DispatchPath::kScalar);
    return hardware == simd::Crc32c(bytes, len) &&
           hardware == simd::scalar::Crc32c(bytes, len);
  };
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      ASSERT_TRUE(paths_agree(small.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
  EXPECT_TRUE(paths_agree(large.data(), large.size()));
  EXPECT_EQ(simd::Crc32c(large.data(), large.size()),
            BitwiseCrc32c(large.data(), large.size()));
}

// ---------------------------------------------------------------------------
// Serving layer: answers identical on every dispatch path
// ---------------------------------------------------------------------------

TEST(SimdServeTest, BatchAnswersIdenticalAcrossDispatchPaths) {
  Rng rng(47);
  const DirectedGraph graph = RandomBalancedDigraph(24, 0.4, 1.0, rng);
  std::vector<CutQueryService::Query> batch;
  CutQueryService hardware_service;
  const auto object = hardware_service.RegisterGraph(graph);
  for (int i = 0; i < 40; ++i) {
    VertexSet side(24, 0);
    for (auto& bit : side) bit = static_cast<uint8_t>(rng.Next() & 1);
    batch.push_back({object, std::move(side)});
  }
  const std::vector<double> hardware = hardware_service.AnswerBatch(batch);

  for (const simd::DispatchPath path : SupportedPaths()) {
    ScopedPath guard(path);
    CutQueryService pinned_service;
    const auto pinned_object = pinned_service.RegisterGraph(graph);
    ASSERT_EQ(pinned_object, object);
    const std::vector<double> pinned = pinned_service.AnswerBatch(batch);
    ASSERT_EQ(hardware.size(), pinned.size());
    for (size_t i = 0; i < hardware.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(hardware[i]),
                std::bit_cast<uint64_t>(pinned[i]))
          << simd::DispatchPathName(path) << " query " << i;
    }
  }
}

}  // namespace
}  // namespace dcs
