#include "sketch/backend_registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/ugraph.h"
#include "mincut/stoer_wagner.h"
#include "sketch/cut_balance_sparsifier.h"
#include "sketch/directed_sketches.h"
#include "sketch/eulerian_sparsifier.h"
#include "sketch/exact_sketch.h"
#include "sketch/serialization.h"
#include "util/random.h"

namespace dcs {
namespace {

// Cycle-sampling backend for general digraphs: peel the input into
// weighted cycles + an exact residual (eulerian_sparsifier.h), keep light
// cycles with probability proportional to their worst-case cut
// contribution (length · weight, relative to the symmetrized min cut of
// the cyclic part), and answer with sampled-cycles + exact-residual. On an
// Eulerian input this is the classic degree-preserving cycle sparsifier;
// skew pushes weight into the exact residual, trading size for accuracy.
class EulerianCycleSketch final : public DirectedCutSketch {
 public:
  EulerianCycleSketch(const DirectedGraph& graph, double epsilon, Rng& rng,
                      double oversample_c)
      : sampled_(graph.num_vertices()), residual_(graph.num_vertices()) {
    DCS_CHECK(epsilon > 0 && epsilon < 1);
    CyclePeeling peeling = PeelCycles(graph);
    residual_ = std::move(peeling.residual);
    double cyclic_min_cut = 0;
    if (!peeling.cycles.empty()) {
      const DirectedGraph cyclic =
          GraphFromCycles(graph.num_vertices(), peeling.cycles);
      if (cyclic.num_edges() > 0) {
        cyclic_min_cut = StoerWagnerMinCut(cyclic.Symmetrized()).value;
      }
    }
    const double n = std::max(2, graph.num_vertices());
    // A cycle of length ℓ and weight w contributes at most ℓ·w/2 to any
    // directed cut; cycles whose ceiling is large relative to the
    // smallest cyclic cut are kept deterministically.
    const double threshold =
        epsilon * epsilon * std::max(cyclic_min_cut, 1e-12) /
        (oversample_c * std::log(n));
    std::vector<WeightedCycle> kept;
    for (const WeightedCycle& cycle : peeling.cycles) {
      const double ceiling =
          cycle.weight * static_cast<double>(cycle.vertices.size()) / 2.0;
      const double p =
          cyclic_min_cut > 0 ? std::min(1.0, ceiling / threshold) : 1.0;
      if (p >= 1.0 || rng.Bernoulli(p)) {
        WeightedCycle reweighted = cycle;
        reweighted.weight /= p;
        kept.push_back(std::move(reweighted));
      }
    }
    sampled_ = GraphFromCycles(graph.num_vertices(), kept);
  }

  double EstimateCut(const VertexSet& side) const override {
    return sampled_.CutWeight(side) + residual_.CutWeight(side);
  }

  int64_t SizeInBits() const override {
    return SerializedSizeInBits(sampled_) + SerializedSizeInBits(residual_);
  }

 private:
  DirectedGraph sampled_;
  DirectedGraph residual_;
};

Status ValidateOptions(const BackendOptions& options) {
  if (!std::isfinite(options.epsilon) || options.epsilon <= 0 ||
      options.epsilon >= 1) {
    return InvalidArgumentError("backend epsilon must be in (0, 1)");
  }
  if (!std::isfinite(options.beta) || options.beta < 1) {
    return InvalidArgumentError("backend beta must be >= 1");
  }
  if (options.median_boost < 1) {
    return InvalidArgumentError("backend median_boost must be >= 1");
  }
  return OkStatus();
}

using BuildOne = std::unique_ptr<DirectedCutSketch> (*)(
    const DirectedGraph&, const BackendOptions&, Rng&);

struct BackendEntry {
  const char* name;
  BackendGuarantee guarantee;
  const char* description;
  double (*advertised_error)(const BackendOptions&);
  BuildOne build;
};

// The registry. Adding a backend = adding a row (DESIGN.md §13); keep the
// bench tables and README bake-off in sync when the set changes.
constexpr double kExactSlack = 1e-9;  // floating-point summation only

const BackendEntry kBackends[] = {
    {"exact", BackendGuarantee::kForAll,
     "store every edge, answer exactly (baseline)",
     [](const BackendOptions&) { return kExactSlack; },
     [](const DirectedGraph& graph, const BackendOptions&,
        Rng&) -> std::unique_ptr<DirectedCutSketch> {
       return std::make_unique<ExactDirectedSketch>(graph);
     }},
    {"forall", BackendGuarantee::kForAll,
     "Benczur-Karger sparsifier of the symmetrization + exact imbalances",
     [](const BackendOptions& o) { return o.epsilon; },
     [](const DirectedGraph& graph, const BackendOptions& o,
        Rng& rng) -> std::unique_ptr<DirectedCutSketch> {
       return std::make_unique<DirectedForAllSketch>(graph, o.epsilon, o.beta,
                                                     rng, o.oversample_c);
     }},
    {"foreach", BackendGuarantee::kForEach,
     "n/eps sampler of the symmetrization + exact imbalances "
     "(documented sqrt-eps substitution for the paper's construction)",
     [](const BackendOptions& o) {
       // The simple inner sampler delivers ~sqrt(eps_u) relative error on
       // the symmetrization; scaled back through w(S) >= u(S)/(1+beta).
       return std::min(1.0, std::sqrt(o.epsilon * (1 + o.beta) / 2));
     },
     [](const DirectedGraph& graph, const BackendOptions& o,
        Rng& rng) -> std::unique_ptr<DirectedCutSketch> {
       return std::make_unique<DirectedForEachSketch>(graph, o.epsilon,
                                                      o.beta, rng,
                                                      o.oversample_c);
     }},
    {"importance", BackendGuarantee::kForEach,
     "directed strength-importance sampler at rate (1+beta)/eps^2",
     [](const BackendOptions& o) {
       return std::min(1.0, o.epsilon * std::sqrt((1 + o.beta) / 2));
     },
     [](const DirectedGraph& graph, const BackendOptions& o,
        Rng& rng) -> std::unique_ptr<DirectedCutSketch> {
       return std::make_unique<DirectedImportanceSamplerSketch>(
           graph, o.epsilon, o.beta, rng, o.oversample_c);
     }},
    {"cut_balance", BackendGuarantee::kForAll,
     "[CCPS21]-style balance-aware directed sample + quantized imbalances",
     [](const BackendOptions& o) { return o.epsilon; },
     [](const DirectedGraph& graph, const BackendOptions& o,
        Rng& rng) -> std::unique_ptr<DirectedCutSketch> {
       return std::make_unique<CutBalanceSparsifier>(graph, o.epsilon,
                                                     o.beta, rng,
                                                     o.oversample_c);
     }},
    {"eulerian", BackendGuarantee::kForAll,
     "cycle-peeling sampler + exact acyclic residual",
     [](const BackendOptions& o) { return o.epsilon; },
     [](const DirectedGraph& graph, const BackendOptions& o,
        Rng& rng) -> std::unique_ptr<DirectedCutSketch> {
       return std::make_unique<EulerianCycleSketch>(graph, o.epsilon, rng,
                                                    o.oversample_c);
     }},
};

const BackendEntry* FindBackend(const std::string& name) {
  for (const BackendEntry& entry : kBackends) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::vector<BackendInfo> RegisteredBackends() {
  std::vector<BackendInfo> infos;
  for (const BackendEntry& entry : kBackends) {
    infos.push_back({entry.name, entry.guarantee, entry.description});
  }
  return infos;
}

std::string RegisteredBackendNames() {
  std::string names;
  for (const BackendEntry& entry : kBackends) {
    if (!names.empty()) names += ", ";
    names += entry.name;
  }
  return names;
}

double BackendAdvertisedError(const std::string& name,
                              const BackendOptions& options) {
  const BackendEntry* entry = FindBackend(name);
  DCS_CHECK(entry != nullptr);
  return entry->advertised_error(options);
}

StatusOr<std::unique_ptr<DirectedCutSketch>> BuildBackendSketch(
    const std::string& name, const DirectedGraph& graph,
    const BackendOptions& options) {
  const BackendEntry* entry = FindBackend(name);
  if (entry == nullptr) {
    return InvalidArgumentError("unknown sparsifier backend '" + name +
                                "' (valid backends: " +
                                RegisteredBackendNames() + ")");
  }
  DCS_RETURN_IF_ERROR(ValidateOptions(options));
  const int copies =
      entry->guarantee == BackendGuarantee::kForEach ? options.median_boost
                                                     : 1;
  if (copies == 1) {
    Rng rng(options.seed);
    return StatusOr<std::unique_ptr<DirectedCutSketch>>(
        entry->build(graph, options, rng));
  }
  std::vector<std::unique_ptr<DirectedCutSketch>> sketches;
  for (int i = 0; i < copies; ++i) {
    Rng rng(SubtaskSeed(options.seed, static_cast<uint64_t>(i)));
    sketches.push_back(entry->build(graph, options, rng));
  }
  return StatusOr<std::unique_ptr<DirectedCutSketch>>(
      std::make_unique<MedianOfDirectedSketches>(std::move(sketches)));
}

}  // namespace dcs
