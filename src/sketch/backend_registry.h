// Named sparsifier backends behind the DirectedCutSketch interface.
//
// Everything that can answer directed cut queries from a compressed (or
// exact) representation registers here under a stable lowercase name, so
// the differential harness, CutQueryService, the distributed pipeline, and
// the CLI can all route to any backend by name. Each backend declares the
// guarantee flavor it offers (for-all vs for-each) and the relative error
// it *advertises* for a given (ε, β) — the bound the differential tests
// hold it to, including documented substitutions that are weaker than the
// paper's optimal constructions (DESIGN.md §13).
//
// Registering a new backend = adding one BackendEntry to kBackends in
// backend_registry.cc (name, guarantee, advertised error, build function).
// The registry is a static table, not a plug-in system: backends are
// library code, and the table keeps the valid-name list in error messages
// and --help exhaustive by construction.

#ifndef DCS_SKETCH_BACKEND_REGISTRY_H_
#define DCS_SKETCH_BACKEND_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "sketch/cut_sketch.h"
#include "util/status.h"

namespace dcs {

// The accuracy contract a backend offers (cut_sketch.h): for-all holds on
// every cut simultaneously; for-each holds per fixed cut with constant
// probability, so differential tests median-boost those backends.
enum class BackendGuarantee { kForAll, kForEach };

struct BackendOptions {
  double epsilon = 0.1;     // target relative error, in (0, 1)
  double beta = 1.0;        // promised balance of the input, >= 1
  uint64_t seed = 1;        // construction randomness
  double oversample_c = 2.0;
  // For-each backends: build this many independent sketches and answer
  // with the median (footnote 2/3 of the paper). 1 = no boost.
  int median_boost = 1;
};

struct BackendInfo {
  std::string name;
  BackendGuarantee guarantee = BackendGuarantee::kForAll;
  std::string description;
};

// All registered backends, in registration order.
std::vector<BackendInfo> RegisteredBackends();

// Comma-separated valid names, for error messages and --help.
std::string RegisteredBackendNames();

// The relative error backend `name` advertises at these options — the
// bound the differential harness asserts. CHECK-fails on unknown names
// (validate with BuildBackendSketch first).
double BackendAdvertisedError(const std::string& name,
                              const BackendOptions& options);

// Builds backend `name` over `graph`. kInvalidArgument naming the valid
// backends when `name` is not registered, or when options are out of
// range (epsilon outside (0, 1), beta < 1, median_boost < 1).
StatusOr<std::unique_ptr<DirectedCutSketch>> BuildBackendSketch(
    const std::string& name, const DirectedGraph& graph,
    const BackendOptions& options);

}  // namespace dcs

#endif  // DCS_SKETCH_BACKEND_REGISTRY_H_
