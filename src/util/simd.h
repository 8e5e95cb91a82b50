// Runtime-dispatched SIMD kernels for the sketch hot paths (DESIGN.md §11).
//
// Four kernel families sit under every hot loop in the library:
//   Fwht          — in-place fast Walsh–Hadamard transform, the inner engine
//                   of the Lemma 3.2 tensor encoding (util/hadamard.cc);
//   ButterflyRows — the element-wise (a, b) → (a+b, a−b) row combine used by
//                   the tiled column passes of the 2-D transform;
//   AddCrossingLanes — the lane add of the many-sided cut kernel
//                   (CutIndex::CutWeights, graph/digraph.cc);
//   Crc32c        — the checksum that seals and checks every envelope,
//                   frame, segment record and trailer (util/checksum.h).
//
// Each family has one scalar implementation (namespace simd::scalar,
// compiled with auto-vectorization disabled so "scalar" means scalar even
// under -march=native) and vector implementations selected at runtime,
// one path per CPU:
//   avx2   — x86-64 with AVX2 and SSE4.2: AVX2 kernels for Fwht,
//            ButterflyRows and AddCrossingLanes, the SSE4.2 crc32
//            instruction for Crc32c;
//   avx512 — the same, plus AVX-512F: the avx2 path with a merge-masked
//            AVX-512 AddCrossingLanes kernel in place of the AVX2 one;
//   neon   — AArch64: NEON Fwht and ButterflyRows (AddCrossingLanes and
//            Crc32c have no NEON kernel and run their scalar references).
// The dispatched entry points below consult ActivePath() per call (one
// relaxed atomic load).
//
// Bit-identity contract: every path — scalar fallback included — executes
// the SAME blocked pass structure (see FwhtBlocked in simd.cc), and the
// vector lanes perform exactly the element-wise operations of the scalar
// loop, so the integer transforms are exact on every path; AddCrossingLanes
// is bit-identical on the avx512 path always and on the avx2 path under the
// precondition stated below, and Crc32c computes one function.
// tests/util_simd_test.cc asserts this on every path the CPU has, for
// every power-of-two FWHT size up to 2^16.
//
// Forcing a path: set the environment variable DCS_FORCE_SCALAR to any
// value other than "0" (read once, at first dispatch) to run scalar, or
// call ForcePath() programmatically (tests pin each path in turn).

#ifndef DCS_UTIL_SIMD_H_
#define DCS_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace dcs::simd {

enum class DispatchPath {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
  kAvx512 = 3,
};

// The path the dispatched kernels below currently use. Resolved once to
// DefaultPath(), then cached; ForcePath overrides.
DispatchPath ActivePath();

// The env-then-hardware default: scalar when DCS_FORCE_SCALAR is set to a
// nonempty value other than "0", otherwise the best path the CPU has.
DispatchPath DefaultPath();

// Stable lowercase name ("scalar", "avx2", "avx512", "neon") for logs and
// bench JSON.
const char* DispatchPathName(DispatchPath path);

// Pins the dispatched kernels to `path`, clamped to what this CPU has:
// avx512 falls back to avx2 on an AVX2-only CPU, and a path the CPU cannot
// run falls back to scalar. Returns the path pinned, so a caller (tests
// comparing every path in one process) can tell which paths exist.
// DCS_FORCE_SCALAR does not cap it; ForcePath(DefaultPath()) drops the pin.
// Takes effect for subsequent calls on any thread.
DispatchPath ForcePath(DispatchPath path);

// In-place unnormalized FWHT of the n = 2^k contiguous elements
// data[0, n).
void Fwht(int64_t* data, size_t n);

// Element-wise butterfly over two contiguous runs of length n:
//   (lo[i], hi[i]) ← (lo[i] + hi[i], lo[i] − hi[i]).
// The 2-D transform's column passes are sweeps of this kernel.
void ButterflyRows(int64_t* lo, int64_t* hi, size_t n);

// The cut kernel's lane add: for k = 0, …, count−1 in order, and for every
// set bit j < lanes of crossing[k], sums[j] += weights[k]. Bits of
// crossing[k] at or above `lanes` are ignored, and sums[j] for j >= lanes is
// neither read nor written. Requires lanes <= 64.
//
// The avx512 path keeps eight lanes per zmm register and adds each weight
// under a write mask made of the entry's crossing bits, so an uncrossed lane
// is not touched: it matches the scalar reference bit for bit with no
// precondition. The avx2 path adds +0.0 to every lane an entry does not
// cross, keeping four lanes per vector register for the whole call.
// x + (+0.0) is x bit for bit except for x = −0.0 (which becomes +0.0) and
// signaling NaNs, so the avx2 path is bit-identical under this
// precondition: no sums[j], j < lanes, holds −0.0 or a signaling NaN on
// entry (in the default floating-point environment). Sums that start at
// +0.0 keep it: under round-to-nearest an IEEE sum is −0.0 only when both
// addends are, whatever the weights.
void AddCrossingLanes(double* sums, size_t lanes, const uint64_t* crossing,
                      const double* weights, size_t count);

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78, initial value and
// final XOR 0xFFFFFFFF) of bytes[0, size). The scalar reference is
// slicing-by-8; the AVX2 path issues one SSE4.2 crc32 per 8 bytes. Both
// compute the same function, so the result never depends on the path.
uint32_t Crc32c(const uint8_t* bytes, size_t size);

// The scalar implementations, callable directly (the benches time them
// against the dispatched path; the property tests compare against them).
// These are the exact code the dispatched functions run on the scalar path.
namespace scalar {
void Fwht(int64_t* data, size_t n);
void ButterflyRows(int64_t* lo, int64_t* hi, size_t n);
void AddCrossingLanes(double* sums, size_t lanes, const uint64_t* crossing,
                      const double* weights, size_t count);
uint32_t Crc32c(const uint8_t* bytes, size_t size);
}  // namespace scalar

}  // namespace dcs::simd

#endif  // DCS_UTIL_SIMD_H_
