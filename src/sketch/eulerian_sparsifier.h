// Cycle peeling of directed graphs, the core of the `eulerian` backend.
//
// Eulerian graphs (weighted in-degree == out-degree everywhere) are the
// β = 1 extreme of the paper's balanced-graph family, and the setting of
// the Eulerian-sparsification line of work the paper cites ([CGP+23],
// [CKK+18]). The key structural fact: an Eulerian digraph decomposes into
// weighted directed cycles, and any nonnegative combination of those
// cycles is again Eulerian.
//
// PeelCycles walks a general digraph greedily and splits it exactly into
// weighted cycles plus a residual that holds the weight no walk closed
// into a cycle; GraphFromCycles rebuilds a digraph from cycles. The
// `eulerian` backend (backend_registry.cc) keeps each peeled cycle with a
// probability set by its worst-case cut contribution, reweighted by 1/p,
// and keeps the residual exactly. The sampled part is a nonnegative
// combination of cycles, so it is exactly Eulerian — every cut has equal
// weight in both directions — and its cuts are unbiased. On an Eulerian
// input the residual is empty and the whole sketch is exactly 1-balanced.

#ifndef DCS_SKETCH_EULERIAN_SPARSIFIER_H_
#define DCS_SKETCH_EULERIAN_SPARSIFIER_H_

#include <vector>

#include "graph/digraph.h"

namespace dcs {

// One weighted directed cycle: vertices[0] → vertices[1] → … → vertices[0].
struct WeightedCycle {
  std::vector<VertexId> vertices;
  double weight = 0;
};

// Rebuilds a digraph from cycles (inverse of PeelCycles's cycle half up to
// edge coalescing).
DirectedGraph GraphFromCycles(int num_vertices,
                              const std::vector<WeightedCycle>& cycles);

// Peeling of a *general* digraph: as many weighted cycles as the greedy
// walk finds, plus an acyclic-ish residual holding everything else.
// Invariant (exact, not approximate): cycles + residual sum back to the
// input's edge weights. On an Eulerian input the residual is empty.
struct CyclePeeling {
  std::vector<WeightedCycle> cycles;
  DirectedGraph residual{0};
};

CyclePeeling PeelCycles(const DirectedGraph& graph);

}  // namespace dcs

#endif  // DCS_SKETCH_EULERIAN_SPARSIFIER_H_
