// Weighted directed multigraph.
//
// The central object of the cut-sketching half of the library. Stored as an
// edge list plus a lazily built CSR adjacency index (flat offset + edge-id
// arrays, no per-vertex vectors); supports directed cut evaluation
// w(S, V∖S) — a full edge scan, or many sides at once over the CSR
// frontiers — per-vertex weighted in/out degrees, reversal, symmetrization
// G + Gᵀ, and merging.

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

  // Weighted out-degree / in-degree of v.
  double OutDegree(VertexId v) const;
  double InDegree(VertexId v) const;

  // Directed cut value w(S, V∖S): total weight of edges leaving S.
  // Requires side.size() == num_vertices(). O(m) edge scan.
  double CutWeight(const VertexSet& side) const;

  // out[i] = w(S_i, V∖S_i) for every side, in passes of up to 64 sides.
  // Each side is answered by the cheaper of S's out-edges or (V∖S)'s
  // in-edges over the CSR adjacency (0 on empty volume, the edge scan when
  // neither frontier is below m), and one pass over each adjacency serves
  // every side that picked it. Each side is packed once into 64-vertex
  // words, which give its volumes and, one 64×64 bit transpose per word,
  // the per-vertex lane masks; the lane add is simd::AddCrossingLanes. A
  // side's sum is the same sequence of adds whatever else is in the call,
  // so the answers are bit-identical for any batch split and dispatch
  // path. Requires out.size() == sides.size() and every side of size
  // num_vertices(). Allocates one scratch vector of 64·⌈n/64⌉ words.
  void CutWeights(std::span<const VertexSet* const> sides,
                  std::span<double> out) const;

  // Total weight of edges from S to T (S, T need not be disjoint; an edge
  // counts iff src ∈ S and dst ∈ T).
  double CrossWeight(const VertexSet& from, const VertexSet& to) const;

  // The reverse graph Gᵀ (every edge flipped).
  DirectedGraph Reversed() const;

  // The undirected symmetrization: one undirected edge {u, v} of weight
  // w(u→v) + w(v→u) for every ordered pair that has directed weight.
  UndirectedGraph Symmetrized() const;

  // Adds all edges of `other` into this graph. Vertex counts must match.
  void MergeFrom(const DirectedGraph& other);

  // Out-edges of v (indices into edges()).
  std::span<const int64_t> OutEdgeIds(VertexId v) const;
  // In-edges of v (indices into edges()).
  std::span<const int64_t> InEdgeIds(VertexId v) const;

  // Forces the lazy CSR adjacency to be built now. The lazy build is not
  // thread-safe; call this before sharing a graph across threads so
  // concurrent OutEdgeIds/InEdgeIds/CutWeights calls only read
  // immutable state.
  void BuildAdjacency() const { EnsureAdjacency(); }

 private:
  void EnsureAdjacency() const;

  int num_vertices_;
  std::vector<Edge> edges_;
  // Lazily built CSR adjacency (invalidated by AddEdge/MergeFrom):
  // out-edge ids of v are out_edge_ids_[out_offsets_[v] ..
  // out_offsets_[v+1]), likewise for in-edges.
  mutable bool adjacency_valid_ = false;
  mutable std::vector<int64_t> out_offsets_;
  mutable std::vector<int64_t> in_offsets_;
  mutable std::vector<int64_t> out_edge_ids_;
  mutable std::vector<int64_t> in_edge_ids_;
};

}  // namespace dcs

#endif  // DCS_GRAPH_DIGRAPH_H_
