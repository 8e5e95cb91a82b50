#include "util/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

#if defined(__x86_64__) || defined(_M_X64)
#define DCS_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define DCS_SIMD_NEON 1
#include <arm_neon.h>
#endif

// "Scalar" must mean scalar: GCC auto-vectorizes plain loops at -O2 and
// turns them into AVX-512 under -march=native, which would make the scalar
// fallback a silent second vector path (different speed, same bits, no
// coverage of the actual fallback code). Pin the scalar kernels.
#if defined(__GNUC__) && !defined(__clang__)
#define DCS_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define DCS_NO_AUTOVEC
#endif

namespace dcs::simd {
namespace {

// Elements per L1-resident block of the FWHT: 4096 × 8 bytes =
// 32 KiB, one core's L1d. All butterfly passes with len < kFwhtBlock run
// while the block is resident; passes with len >= kFwhtBlock stream the
// buffer once each as element-wise row combines.
constexpr size_t kFwhtBlock = 4096;

// ---------------------------------------------------------------------------
// Scalar kernels (the dispatch fallback and the bench/test reference).
// ---------------------------------------------------------------------------

DCS_NO_AUTOVEC void ScalarSmallFwhtI64(int64_t* d, size_t n) {
  for (size_t len = 1; len < n; len <<= 1) {
    for (size_t block = 0; block < n; block += len << 1) {
      for (size_t i = block; i < block + len; ++i) {
        const int64_t a = d[i];
        const int64_t b = d[i + len];
        d[i] = a + b;
        d[i + len] = a - b;
      }
    }
  }
}

DCS_NO_AUTOVEC void ScalarButterflyI64(int64_t* lo, int64_t* hi, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = lo[i];
    const int64_t b = hi[i];
    lo[i] = a + b;
    hi[i] = a - b;
  }
}

DCS_NO_AUTOVEC void ScalarAddCrossingLanes(double* sums, size_t lanes,
                                           const uint64_t* crossing,
                                           const double* weights,
                                           size_t count) {
  const uint64_t lane_bits =
      lanes >= 64 ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
  for (size_t k = 0; k < count; ++k) {
    for (uint64_t bits = crossing[k] & lane_bits; bits != 0;
         bits &= bits - 1) {
      sums[std::countr_zero(bits)] += weights[k];
    }
  }
}

// CRC32C slicing-by-8 tables, built at compile time. Row 0 is the bytewise
// table of the reflected polynomial; row k advances row k − 1's entry
// through one more zero byte, so one lookup per row folds eight bytes.
constexpr uint32_t kCrc32cPolynomial = 0x82F63B78u;

constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32cTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPolynomial : 0u);
    }
    tables[0][byte] = crc;
  }
  for (size_t row = 1; row < 8; ++row) {
    for (size_t byte = 0; byte < 256; ++byte) {
      const uint32_t prev = tables[row - 1][byte];
      tables[row][byte] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32cTables =
    MakeCrc32cTables();

// Four bytes as a little-endian word, whatever the host order.
uint32_t LoadLe32(const uint8_t* bytes) {
  uint32_t word;
  std::memcpy(&word, bytes, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap32(word);
  }
  return word;
}

// Eight bytes per step, loaded as two 32-bit halves: the low half absorbs
// the running CRC, and each byte indexes the row that carries it past the
// bytes after it.
DCS_NO_AUTOVEC uint32_t ScalarCrc32c(const uint8_t* bytes, size_t size) {
  const auto& t = kCrc32cTables;
  uint32_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const uint32_t lo = LoadLe32(bytes + i) ^ crc;
    const uint32_t hi = LoadLe32(bytes + i + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; i < size; ++i) crc = (crc >> 8) ^ t[0][(crc ^ bytes[i]) & 0xFF];
  return ~crc;
}

// ---------------------------------------------------------------------------
// Shared blocked driver. Every path runs this exact pass structure; paths
// differ only in the small/butterfly kernels, whose lanes perform the scalar
// loop's element-wise operations verbatim. Per element, butterflies still
// apply in increasing-len order (passes touch disjoint pairs), so the
// transform is bit-identical across paths AND to the pre-blocking in-order
// implementation.
// ---------------------------------------------------------------------------

void FwhtBlocked(int64_t* d, size_t n,
                 void (*small_fwht)(int64_t*, size_t),
                 void (*butterfly)(int64_t*, int64_t*, size_t),
                 void (*butterfly4)(int64_t*, int64_t*, int64_t*, int64_t*,
                                    size_t) = nullptr) {
  const size_t block = std::min(n, kFwhtBlock);
  for (size_t base = 0; base < n; base += block) {
    small_fwht(d + base, block);
  }
  size_t len = block;
  if (butterfly4 != nullptr) {
    // Fused pairs of streaming passes (radix-4): bit-identical per element
    // (see the radix-4 kernel comment), half the memory sweeps.
    for (; (len << 1) < n; len <<= 2) {
      for (size_t b = 0; b < n; b += len << 2) {
        butterfly4(d + b, d + b + len, d + b + 2 * len, d + b + 3 * len,
                   len);
      }
    }
  }
  for (; len < n; len <<= 1) {
    for (size_t b = 0; b < n; b += len << 1) {
      butterfly(d + b, d + b + len, len);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64, runtime-gated on CPU support).
// ---------------------------------------------------------------------------

#if defined(DCS_SIMD_X86)

__attribute__((target("avx2"))) void Avx2ButterflyI64(int64_t* lo,
                                                      int64_t* hi, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo + i),
                        _mm256_add_epi64(a, b));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi + i),
                        _mm256_sub_epi64(a, b));
  }
  for (; i < n; ++i) {
    const int64_t a = lo[i];
    const int64_t b = hi[i];
    lo[i] = a + b;
    hi[i] = a - b;
  }
}

// Radix-4 butterfly: the passes at `len` and `2·len` fused into one memory
// sweep over four rows. Per element this evaluates (a+b), (a−b), (c+d),
// (c−d) and then combines them — the exact operations, in the exact
// pairing, that two radix-2 passes perform, so results are bit-identical;
// only the intermediate store/reload is eliminated, which matters because
// the butterflies are memory-bound.
__attribute__((target("avx2"))) void Avx2Butterfly4I64(int64_t* r0,
                                                       int64_t* r1,
                                                       int64_t* r2,
                                                       int64_t* r3, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + i));
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r2 + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r3 + i));
    const __m256i ab = _mm256_add_epi64(a, b);
    const __m256i amb = _mm256_sub_epi64(a, b);
    const __m256i cd = _mm256_add_epi64(c, d);
    const __m256i cmd = _mm256_sub_epi64(c, d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r0 + i),
                        _mm256_add_epi64(ab, cd));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r1 + i),
                        _mm256_add_epi64(amb, cmd));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r2 + i),
                        _mm256_sub_epi64(ab, cd));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r3 + i),
                        _mm256_sub_epi64(amb, cmd));
  }
  for (; i < n; ++i) {
    const int64_t ab = r0[i] + r1[i];
    const int64_t amb = r0[i] - r1[i];
    const int64_t cd = r2[i] + r3[i];
    const int64_t cmd = r2[i] - r3[i];
    r0[i] = ab + cd;
    r1[i] = amb + cmd;
    r2[i] = ab - cd;
    r3[i] = amb - cmd;
  }
}

// Full FWHT of one contiguous block. The len==1 and len==2 passes keep the
// butterfly inside one vector via lane shuffles; len >= 4 passes are plain
// vector row combines. n < 8 falls back to the scalar block kernel (same
// element-wise operations, so identical results).
__attribute__((target("avx2"))) void Avx2SmallFwhtI64(int64_t* d, size_t n) {
  if (n < 8) {
    ScalarSmallFwhtI64(d, n);
    return;
  }
  // len==1 and len==2 fused in-register: one load/store sweep runs both
  // passes. In the diff operands, y holds a in the b lanes, so a−b = y−x.
  for (size_t i = 0; i < n; i += 4) {
    // x = [a0 b0 a1 b1]; len==1 pairs swap within 128-bit lanes; 32-bit
    // blend mask 0xCC selects 64-bit lanes 1,3 from diff.
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const __m256i y = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 3, 0, 1));
    const __m256i p = _mm256_blend_epi32(_mm256_add_epi64(x, y),
                                         _mm256_sub_epi64(y, x), 0xCC);
    // len==2: 128-bit halves swap; mask 0xF0 selects lanes 2,3 from diff.
    const __m256i q = _mm256_permute4x64_epi64(p, _MM_SHUFFLE(1, 0, 3, 2));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                        _mm256_blend_epi32(_mm256_add_epi64(p, q),
                                           _mm256_sub_epi64(q, p), 0xF0));
  }
  size_t len = 4;
  for (; (len << 1) < n; len <<= 2) {
    for (size_t b = 0; b < n; b += len << 2) {
      Avx2Butterfly4I64(d + b, d + b + len, d + b + 2 * len, d + b + 3 * len,
                        len);
    }
  }
  if (len < n) {
    for (size_t b = 0; b < n; b += len << 1) {
      Avx2ButterflyI64(d + b, d + b + len, len);
    }
  }
}

// Lanes 4g … 4g+3 of AddCrossingLanes for g < kGroups, with the lane
// crossing bits of each entry shifted down to bit 0. Lane i of group g is
// selected by and + cmpeq against the bit pattern 1 << (4g + i); the
// uncrossed lanes' addend is masked to +0.0, and the accumulators stay in
// registers for the whole sweep.
template <size_t kGroups>
__attribute__((target("avx2"))) void Avx2AddCrossingGroups(
    double* sums, const uint64_t* crossing, const double* weights,
    size_t count, unsigned shift) {
  __m256d acc[kGroups];
  __m256i bit[kGroups];
#pragma GCC unroll 8
  for (size_t g = 0; g < kGroups; ++g) {
    acc[g] = _mm256_load_pd(sums + 4 * g);
    const long long low = 1LL << (4 * g);
    bit[g] = _mm256_setr_epi64x(low, low << 1, low << 2, low << 3);
  }
  for (size_t k = 0; k < count; ++k) {
    const __m256i lanes =
        _mm256_set1_epi64x(static_cast<long long>(crossing[k] >> shift));
    const __m256d weight = _mm256_broadcast_sd(weights + k);
#pragma GCC unroll 8
    for (size_t g = 0; g < kGroups; ++g) {
      const __m256i crossed =
          _mm256_cmpeq_epi64(_mm256_and_si256(lanes, bit[g]), bit[g]);
      acc[g] = _mm256_add_pd(
          acc[g], _mm256_and_pd(_mm256_castsi256_pd(crossed), weight));
    }
  }
#pragma GCC unroll 8
  for (size_t g = 0; g < kGroups; ++g) {
    _mm256_store_pd(sums + 4 * g, acc[g]);
  }
}

constexpr void (*kGroupKernels[])(double*, const uint64_t*, const double*,
                                  size_t, unsigned) = {
    Avx2AddCrossingGroups<1>, Avx2AddCrossingGroups<2>,
    Avx2AddCrossingGroups<3>, Avx2AddCrossingGroups<4>,
    Avx2AddCrossingGroups<5>, Avx2AddCrossingGroups<6>,
    Avx2AddCrossingGroups<7>, Avx2AddCrossingGroups<8>};

// Sweeps the entries once per 32 lanes, so at most eight accumulators are
// live. The sums go through an aligned copy padded to whole groups: the
// padding lanes absorb crossing bits at or above `lanes` and are dropped.
__attribute__((target("avx2"))) void Avx2AddCrossingLanes(
    double* sums, size_t lanes, const uint64_t* crossing,
    const double* weights, size_t count) {
  alignas(32) double padded[64] = {};
  std::copy(sums, sums + lanes, padded);
  const size_t groups = (lanes + 3) / 4;
  for (size_t first = 0; first < groups; first += 8) {
    kGroupKernels[std::min<size_t>(8, groups - first) - 1](
        padded + 4 * first, crossing, weights, count,
        static_cast<unsigned>(4 * first));
  }
  std::copy(padded, padded + lanes, sums);
}

// Lanes 8g … 8g+7 of AddCrossingLanes for g < kGroups, eight per zmm, all
// in one sweep. Each entry's crossing bits, clipped to `lanes`, are the
// write masks of one merge-masked add per group: a crossed lane becomes
// sum + weight and an uncrossed lane keeps its register as it was, so every
// lane performs exactly the scalar loop's adds. The masked load and store
// touch sums[0, lanes) only.
template <size_t kGroups>
__attribute__((target("avx512f"))) void Avx512AddCrossingGroups(
    double* sums, uint64_t lane_bits, const uint64_t* crossing,
    const double* weights, size_t count) {
  __m512d acc[kGroups];
#pragma GCC unroll 8
  for (size_t g = 0; g < kGroups; ++g) {
    acc[g] = _mm512_maskz_loadu_pd(static_cast<__mmask8>(lane_bits >> 8 * g),
                                   sums + 8 * g);
  }
  for (size_t k = 0; k < count; ++k) {
    const uint64_t crossed = crossing[k] & lane_bits;
    const __m512d weight = _mm512_set1_pd(weights[k]);
#pragma GCC unroll 8
    for (size_t g = 0; g < kGroups; ++g) {
      acc[g] = _mm512_mask_add_pd(
          acc[g], static_cast<__mmask8>(crossed >> 8 * g), acc[g], weight);
    }
  }
#pragma GCC unroll 8
  for (size_t g = 0; g < kGroups; ++g) {
    _mm512_mask_storeu_pd(sums + 8 * g,
                          static_cast<__mmask8>(lane_bits >> 8 * g), acc[g]);
  }
}

constexpr void (*kMaskedGroupKernels[])(double*, uint64_t, const uint64_t*,
                                        const double*, size_t) = {
    Avx512AddCrossingGroups<1>, Avx512AddCrossingGroups<2>,
    Avx512AddCrossingGroups<3>, Avx512AddCrossingGroups<4>,
    Avx512AddCrossingGroups<5>, Avx512AddCrossingGroups<6>,
    Avx512AddCrossingGroups<7>, Avx512AddCrossingGroups<8>};

void Avx512AddCrossingLanes(double* sums, size_t lanes,
                            const uint64_t* crossing, const double* weights,
                            size_t count) {
  const uint64_t lane_bits =
      lanes >= 64 ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
  kMaskedGroupKernels[(lanes + 7) / 8 - 1](sums, lane_bits, crossing, weights,
                                           count);
}

// One crc32 stream over 8-byte loads, then a byte tail. The instruction
// computes exactly the scalar reference's CRC32C step.
__attribute__((target("sse4.2"))) uint32_t Sse42Crc32c(const uint8_t* bytes,
                                                       size_t size) {
  uint64_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t tail = static_cast<uint32_t>(crc);
  for (; i < size; ++i) tail = _mm_crc32_u8(tail, bytes[i]);
  return ~tail;
}

#endif  // DCS_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels (AArch64; NEON is baseline there, no runtime gate needed).
// ---------------------------------------------------------------------------

#if defined(DCS_SIMD_NEON)

void NeonButterflyI64(int64_t* lo, int64_t* hi, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t a = vld1q_s64(lo + i);
    const int64x2_t b = vld1q_s64(hi + i);
    vst1q_s64(lo + i, vaddq_s64(a, b));
    vst1q_s64(hi + i, vsubq_s64(a, b));
  }
  for (; i < n; ++i) {
    const int64_t a = lo[i];
    const int64_t b = hi[i];
    lo[i] = a + b;
    hi[i] = a - b;
  }
}

void NeonSmallFwhtI64(int64_t* d, size_t n) {
  if (n < 4) {
    ScalarSmallFwhtI64(d, n);
    return;
  }
  for (size_t i = 0; i < n; i += 2) {
    // x = [a b] → [a+b, a−b].
    const int64x2_t x = vld1q_s64(d + i);
    const int64x2_t y = vextq_s64(x, x, 1);  // [b a]
    const int64x2_t sum = vaddq_s64(x, y);
    const int64x2_t diff = vsubq_s64(y, x);  // lane 1 = a−b
    vst1q_s64(d + i, vcombine_s64(vget_low_s64(sum), vget_high_s64(diff)));
  }
  for (size_t len = 2; len < n; len <<= 1) {
    for (size_t b = 0; b < n; b += len << 1) {
      NeonButterflyI64(d + b, d + b + len, len);
    }
  }
}

#endif  // DCS_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

DispatchPath DetectHardwarePath() {
#if defined(DCS_SIMD_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2")) {
    return __builtin_cpu_supports("avx512f") ? DispatchPath::kAvx512
                                             : DispatchPath::kAvx2;
  }
#elif defined(DCS_SIMD_NEON)
  return DispatchPath::kNeon;
#endif
  return DispatchPath::kScalar;
}

// True on the paths that run the AVX2 FWHT, butterfly and CRC32C kernels.
bool UsesAvx2(DispatchPath path) {
  return path == DispatchPath::kAvx2 || path == DispatchPath::kAvx512;
}

// −1 = not yet resolved; otherwise the cached DispatchPath value.
std::atomic<int> g_path{-1};

}  // namespace

DispatchPath DefaultPath() {
  const char* env = std::getenv("DCS_FORCE_SCALAR");
  const bool force_scalar =
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  return force_scalar ? DispatchPath::kScalar : DetectHardwarePath();
}

DispatchPath ActivePath() {
  const int cached = g_path.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<DispatchPath>(cached);
  const DispatchPath path = DefaultPath();
  g_path.store(static_cast<int>(path), std::memory_order_relaxed);
  return path;
}

const char* DispatchPathName(DispatchPath path) {
  switch (path) {
    case DispatchPath::kAvx2:
      return "avx2";
    case DispatchPath::kAvx512:
      return "avx512";
    case DispatchPath::kNeon:
      return "neon";
    case DispatchPath::kScalar:
      return "scalar";
  }
  return "unknown";
}

DispatchPath ForcePath(DispatchPath path) {
  // The CPU runs its own path, scalar, and avx2 when its own is avx512.
  const DispatchPath hardware = DetectHardwarePath();
  if (path == DispatchPath::kAvx512 && path != hardware) {
    path = DispatchPath::kAvx2;
  }
  const bool avx2_under_avx512 =
      path == DispatchPath::kAvx2 && UsesAvx2(hardware);
  if (path != hardware && !avx2_under_avx512) path = DispatchPath::kScalar;
  g_path.store(static_cast<int>(path), std::memory_order_relaxed);
  return path;
}

void Fwht(int64_t* data, size_t n) {
  DCS_CHECK(n > 0 && (n & (n - 1)) == 0);
  if (n == 1) return;
  switch (ActivePath()) {
#if defined(DCS_SIMD_X86)
    case DispatchPath::kAvx2:
    case DispatchPath::kAvx512:
      FwhtBlocked(data, n, Avx2SmallFwhtI64, Avx2ButterflyI64,
                  Avx2Butterfly4I64);
      return;
#elif defined(DCS_SIMD_NEON)
    case DispatchPath::kNeon:
      FwhtBlocked(data, n, NeonSmallFwhtI64, NeonButterflyI64);
      return;
#endif
    default:
      FwhtBlocked(data, n, ScalarSmallFwhtI64, ScalarButterflyI64);
      return;
  }
}

void ButterflyRows(int64_t* lo, int64_t* hi, size_t n) {
  switch (ActivePath()) {
#if defined(DCS_SIMD_X86)
    case DispatchPath::kAvx2:
    case DispatchPath::kAvx512:
      Avx2ButterflyI64(lo, hi, n);
      return;
#elif defined(DCS_SIMD_NEON)
    case DispatchPath::kNeon:
      NeonButterflyI64(lo, hi, n);
      return;
#endif
    default:
      ScalarButterflyI64(lo, hi, n);
      return;
  }
}

void AddCrossingLanes(double* sums, size_t lanes, const uint64_t* crossing,
                      const double* weights, size_t count) {
  DCS_CHECK_LE(lanes, size_t{64});
  if (lanes == 0 || count == 0) return;
#if defined(DCS_SIMD_X86)
  switch (ActivePath()) {
    case DispatchPath::kAvx512:
      Avx512AddCrossingLanes(sums, lanes, crossing, weights, count);
      return;
    case DispatchPath::kAvx2:
      Avx2AddCrossingLanes(sums, lanes, crossing, weights, count);
      return;
    default:
      break;
  }
#endif
  ScalarAddCrossingLanes(sums, lanes, crossing, weights, count);
}

uint32_t Crc32c(const uint8_t* bytes, size_t size) {
#if defined(DCS_SIMD_X86)
  if (UsesAvx2(ActivePath())) return Sse42Crc32c(bytes, size);
#endif
  return ScalarCrc32c(bytes, size);
}

namespace scalar {

void Fwht(int64_t* data, size_t n) {
  DCS_CHECK(n > 0 && (n & (n - 1)) == 0);
  if (n == 1) return;
  FwhtBlocked(data, n, ScalarSmallFwhtI64, ScalarButterflyI64);
}

void ButterflyRows(int64_t* lo, int64_t* hi, size_t n) {
  ScalarButterflyI64(lo, hi, n);
}

void AddCrossingLanes(double* sums, size_t lanes, const uint64_t* crossing,
                      const double* weights, size_t count) {
  DCS_CHECK_LE(lanes, size_t{64});
  ScalarAddCrossingLanes(sums, lanes, crossing, weights, count);
}

uint32_t Crc32c(const uint8_t* bytes, size_t size) {
  return ScalarCrc32c(bytes, size);
}

}  // namespace scalar

}  // namespace dcs::simd
