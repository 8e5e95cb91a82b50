#include "graph/ugraph.h"

#include <cmath>
#include <utility>

namespace dcs {

UndirectedGraph::UndirectedGraph(int num_vertices)
    : num_vertices_(num_vertices) {
  DCS_CHECK_GE(num_vertices, 0);
}

void UndirectedGraph::AddEdge(VertexId u, VertexId v, double weight) {
  DCS_CHECK(u >= 0 && u < num_vertices_);
  DCS_CHECK(v >= 0 && v < num_vertices_);
  DCS_CHECK_NE(u, v);
  // NaN fails both comparisons below in confusing ways; reject it (and
  // infinities) explicitly. Untrusted inputs are screened before AddEdge by
  // graph_io / serialization, so tripping this is a caller bug.
  DCS_CHECK(std::isfinite(weight));
  DCS_CHECK_GE(weight, 0);
  if (u > v) std::swap(u, v);
  edges_.push_back(Edge{u, v, weight});
}

double UndirectedGraph::TotalWeight() const {
  double total = 0;
  for (const Edge& e : edges_) total += e.weight;
  return total;
}

double UndirectedGraph::CutWeight(const VertexSet& side) const {
  DCS_CHECK_EQ(static_cast<int>(side.size()), num_vertices_);
  double total = 0;
  for (const Edge& e : edges_) {
    if (side[static_cast<size_t>(e.src)] != side[static_cast<size_t>(e.dst)]) {
      total += e.weight;
    }
  }
  return total;
}

void UndirectedGraph::MergeFrom(const UndirectedGraph& other) {
  DCS_CHECK_EQ(num_vertices_, other.num_vertices_);
  edges_.insert(edges_.end(), other.edges_.begin(), other.edges_.end());
}

}  // namespace dcs
