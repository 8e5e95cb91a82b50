// Weighted undirected multigraph.
//
// Substrate for the min-cut algorithms (Stoer–Wagner, Karger–Stein,
// Nagamochi–Ibaraki), the local query model, and the undirected halves of
// the sketch library.

#ifndef DCS_GRAPH_UGRAPH_H_
#define DCS_GRAPH_UGRAPH_H_

#include <vector>

#include "graph/types.h"

namespace dcs {

// A weighted undirected multigraph on vertices {0, ..., n−1}. Each edge is
// stored once with endpoints normalized so src <= dst (self-loops are
// rejected). Parallel edges are allowed.
class UndirectedGraph {
 public:
  explicit UndirectedGraph(int num_vertices);

  UndirectedGraph(const UndirectedGraph&) = default;
  UndirectedGraph& operator=(const UndirectedGraph&) = default;
  UndirectedGraph(UndirectedGraph&&) = default;
  UndirectedGraph& operator=(UndirectedGraph&&) = default;

  int num_vertices() const { return num_vertices_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  const std::vector<Edge>& edges() const { return edges_; }

  // Adds the undirected edge {u, v} with the given weight.
  // Requires u != v, both in range, weight >= 0.
  void AddEdge(VertexId u, VertexId v, double weight);

  // Makes room for `count` edges in total, so that many AddEdge calls do
  // not reallocate.
  void ReserveEdges(int64_t count) {
    edges_.reserve(static_cast<size_t>(count));
  }

  // Total weight of all edges.
  double TotalWeight() const;

  // Weighted degree of v.
  double Degree(VertexId v) const;

  // Undirected cut value: total weight of edges with exactly one endpoint
  // in S. Requires side.size() == num_vertices().
  double CutWeight(const VertexSet& side) const;

  // Adds all edges of `other` into this graph. Vertex counts must match.
  void MergeFrom(const UndirectedGraph& other);

  // Incident edges of v (indices into edges()).
  const std::vector<int64_t>& IncidentEdgeIds(VertexId v) const;

  // Returns the same graph with every undirected edge replaced by two
  // opposite directed edges of the same weight (used when feeding an
  // undirected graph to directed algorithms such as Dinic).
  std::vector<Edge> AsDirectedEdges() const;

  // Forces the lazy adjacency index to be built now. The lazy build is not
  // thread-safe; call this before sharing a graph across threads so
  // concurrent IncidentEdgeIds/Degree calls only read immutable state.
  void BuildAdjacency() const { EnsureAdjacency(); }

 private:
  void EnsureAdjacency() const;

  int num_vertices_;
  std::vector<Edge> edges_;
  mutable bool adjacency_valid_ = false;
  mutable std::vector<std::vector<int64_t>> incident_edge_ids_;
};

}  // namespace dcs

#endif  // DCS_GRAPH_UGRAPH_H_
