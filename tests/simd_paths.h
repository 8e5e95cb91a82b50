// Test helpers for running a check on every SIMD dispatch path this CPU
// has (util/simd.h): the paths themselves, and a guard that pins one.

#ifndef DCS_TESTS_SIMD_PATHS_H_
#define DCS_TESTS_SIMD_PATHS_H_

#include <vector>

#include "util/simd.h"

namespace dcs {

// Pins the dispatched kernels to a path for its scope, then restores the
// default, so a pinned path cannot leak into later tests.
class ScopedPath {
 public:
  explicit ScopedPath(simd::DispatchPath path) { simd::ForcePath(path); }
  ~ScopedPath() { simd::ForcePath(simd::DefaultPath()); }
  ScopedPath(const ScopedPath&) = delete;
  ScopedPath& operator=(const ScopedPath&) = delete;
};

// Every path ForcePath can pin on this CPU, scalar first.
inline std::vector<simd::DispatchPath> SupportedPaths() {
  std::vector<simd::DispatchPath> paths;
  for (const simd::DispatchPath path :
       {simd::DispatchPath::kScalar, simd::DispatchPath::kAvx2,
        simd::DispatchPath::kAvx512, simd::DispatchPath::kNeon}) {
    if (simd::ForcePath(path) == path) paths.push_back(path);
  }
  simd::ForcePath(simd::DefaultPath());
  return paths;
}

}  // namespace dcs

#endif  // DCS_TESTS_SIMD_PATHS_H_
