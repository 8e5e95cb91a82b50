#include "sketch/eulerian_sparsifier.h"

#include <algorithm>

namespace dcs {
namespace {

constexpr double kWeightTolerance = 1e-9;

}  // namespace

DirectedGraph GraphFromCycles(int num_vertices,
                              const std::vector<WeightedCycle>& cycles) {
  DirectedGraph graph(num_vertices);
  for (const WeightedCycle& cycle : cycles) {
    DCS_CHECK_GE(cycle.vertices.size(), 2u);
    for (size_t k = 0; k < cycle.vertices.size(); ++k) {
      graph.AddEdge(cycle.vertices[k],
                    cycle.vertices[(k + 1) % cycle.vertices.size()],
                    cycle.weight);
    }
  }
  return graph;
}

CyclePeeling PeelCycles(const DirectedGraph& graph) {
  const int n = graph.num_vertices();
  CyclePeeling peeling;
  peeling.residual = DirectedGraph(n);
  // Each vertex's out-arcs, in edge order, and the weight each arc has not
  // yet given to a cycle or the residual, by its CSR position.
  const CutIndex index(graph);
  const CutIndex::Arcs& out = index.out();
  std::vector<double> remaining = out.weights;
  // Per-vertex cursor into its out-arcs, advanced past spent arcs.
  std::vector<int64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  auto next_out_arc = [&](VertexId v) -> int64_t {
    int64_t& at = cursor[static_cast<size_t>(v)];
    for (; at < out.offsets[static_cast<size_t>(v) + 1]; ++at) {
      if (remaining[static_cast<size_t>(at)] > kWeightTolerance) return at;
    }
    return -1;
  };

  // on_path[v] = position of v on the current walk, or -1.
  std::vector<int> on_path(static_cast<size_t>(n), -1);
  for (VertexId start = 0; start < n; ++start) {
    while (next_out_arc(start) != -1) {
      // Walk from `start`; a revisit closes a cycle. On an Eulerian graph
      // (which cycle subtraction preserves) the walk can always continue,
      // but in general it may dead-end — the graph does not owe us a
      // continuation. Dead-ended edges backtrack into the residual (their
      // remaining weight provably lies on no cycle through the
      // already-spent prefix; exactness of the split is all the sketch
      // needs).
      std::vector<VertexId> path_vertices;
      std::vector<int64_t> path_edges;  // CSR positions of the walk's arcs
      VertexId v = start;
      on_path[static_cast<size_t>(v)] = 0;
      path_vertices.push_back(v);
      while (true) {
        const int64_t arc = next_out_arc(v);
        if (arc < 0) {
          if (path_edges.empty()) break;  // start itself is spent
          const int64_t last = path_edges.back();
          path_edges.pop_back();
          path_vertices.pop_back();
          peeling.residual.AddEdge(path_vertices.back(), v,
                                   remaining[static_cast<size_t>(last)]);
          remaining[static_cast<size_t>(last)] = 0;
          on_path[static_cast<size_t>(v)] = -1;
          v = path_vertices.back();
          continue;
        }
        const VertexId next = out.neighbors[static_cast<size_t>(arc)];
        path_edges.push_back(arc);
        if (on_path[static_cast<size_t>(next)] != -1) {
          const size_t from =
              static_cast<size_t>(on_path[static_cast<size_t>(next)]);
          WeightedCycle cycle;
          cycle.vertices.assign(
              path_vertices.begin() + static_cast<int64_t>(from),
              path_vertices.end());
          double delta = remaining[static_cast<size_t>(path_edges[from])];
          for (size_t k = from; k < path_edges.size(); ++k) {
            delta = std::min(delta,
                             remaining[static_cast<size_t>(path_edges[k])]);
          }
          cycle.weight = delta;
          for (size_t k = from; k < path_edges.size(); ++k) {
            remaining[static_cast<size_t>(path_edges[k])] -= delta;
          }
          peeling.cycles.push_back(std::move(cycle));
          break;
        }
        v = next;
        on_path[static_cast<size_t>(v)] =
            static_cast<int>(path_vertices.size());
        path_vertices.push_back(v);
      }
      for (VertexId u : path_vertices) {
        on_path[static_cast<size_t>(u)] = -1;
      }
    }
  }
  // Each start's loop ends only once all its out-arcs are spent, so every
  // edge is now cycles + residual up to kWeightTolerance; weight at or
  // below it is dropped from both halves.
  return peeling;
}

}  // namespace dcs
