// Weighted directed multigraph, and its cut index.
//
// The central objects of the cut-sketching half of the library. A
// DirectedGraph is a plain edge list: it evaluates the directed cut
// w(S, V∖S) by a full edge scan, and gives reversal and the symmetrization
// G + Gᵀ. A CutIndex is built once from a finished graph: an immutable CSR
// with weights inline, from which many sides are answered at once over
// their frontiers and a side is maintained under single-vertex flips
// (incremental_cut_oracle.h).

#ifndef DCS_GRAPH_DIGRAPH_H_
#define DCS_GRAPH_DIGRAPH_H_

#include <span>
#include <vector>

#include "graph/types.h"

namespace dcs {

class UndirectedGraph;

// A weighted directed multigraph on vertices {0, ..., n−1}. Parallel edges
// are allowed (weights add for all cut purposes); self-loops are rejected.
class DirectedGraph {
 public:
  // An empty graph on `num_vertices` vertices.
  explicit DirectedGraph(int num_vertices);

  DirectedGraph(const DirectedGraph&) = default;
  DirectedGraph& operator=(const DirectedGraph&) = default;
  DirectedGraph(DirectedGraph&&) = default;
  DirectedGraph& operator=(DirectedGraph&&) = default;

  int num_vertices() const { return num_vertices_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  const std::vector<Edge>& edges() const { return edges_; }

  // Adds the directed edge (src → dst) with the given weight.
  // Requires src != dst, both in range, weight >= 0.
  void AddEdge(VertexId src, VertexId dst, double weight);

  // Makes room for `count` edges in total, so that many AddEdge calls do
  // not reallocate.
  void ReserveEdges(int64_t count) {
    edges_.reserve(static_cast<size_t>(count));
  }

  // Total weight of all edges.
  double TotalWeight() const;

  // Directed cut value w(S, V∖S): total weight of edges leaving S.
  // Requires side.size() == num_vertices(). O(m) edge scan.
  double CutWeight(const VertexSet& side) const;

  // Total weight of edges from S to T (S, T need not be disjoint; an edge
  // counts iff src ∈ S and dst ∈ T).
  double CrossWeight(const VertexSet& from, const VertexSet& to) const;

  // The reverse graph Gᵀ (every edge flipped).
  DirectedGraph Reversed() const;

  // The undirected symmetrization: one undirected edge {u, v} of weight
  // w(u→v) + w(v→u) for every ordered pair that has directed weight.
  UndirectedGraph Symmetrized() const;

 private:
  int num_vertices_;
  std::vector<Edge> edges_;
};

// The CSR index of a finished DirectedGraph, built once by the constructor
// and never changed. Per direction it holds the vertex offsets and, for
// every arc, its far endpoint (the head of an out-arc, the tail of an
// in-arc) and its weight, in edge order within each vertex. It copies
// everything it reads, so it may outlive its graph, and nothing changes it
// after construction, so any number of threads may share one.
class CutIndex {
 public:
  // One direction: the arcs of v sit at positions [offsets[v],
  // offsets[v + 1]) of `neighbors` and `weights`.
  struct Arcs {
    std::vector<int64_t> offsets;
    std::vector<VertexId> neighbors;
    std::vector<double> weights;
  };

  explicit CutIndex(const DirectedGraph& graph);

  int num_vertices() const { return num_vertices_; }
  int64_t num_edges() const {
    return static_cast<int64_t>(out_.neighbors.size());
  }
  const Arcs& out() const { return out_; }
  const Arcs& in() const { return in_; }

  // out[i] = w(S_i, V∖S_i) for every side, in passes of up to 64 sides.
  // Each side is answered by the cheaper of S's out-arcs or (V∖S)'s
  // in-arcs (0 on empty volume; when neither frontier is below m every edge
  // crosses, and the answer is the graph's edge-order TotalWeight, stored
  // at build), and one pass over each direction serves every side that
  // picked it. Each side is packed once into 64-vertex words, which give
  // its volumes and, one 64×64 bit transpose per word, the per-vertex lane
  // masks; the lane add is simd::AddCrossingLanes. A side's sum is the same
  // sequence of adds whatever else is in the call, so the answers are
  // bit-identical for any batch split and dispatch path. Requires
  // out.size() == sides.size() and every side of size num_vertices().
  // Allocates one scratch vector of 64·⌈n/64⌉ words.
  void CutWeights(std::span<const VertexSet* const> sides,
                  std::span<double> out) const;

 private:
  int num_vertices_;
  // TotalWeight() of the graph: the answer of a side every edge crosses.
  double total_weight_;
  Arcs out_;
  Arcs in_;
};

}  // namespace dcs

#endif  // DCS_GRAPH_DIGRAPH_H_
