// Weighted vertex degrees by edge scan, for the tests that assert them:
// neither graph class keeps an adjacency to read them from.

#ifndef DCS_TESTS_DEGREES_H_
#define DCS_TESTS_DEGREES_H_

#include <vector>

#include "graph/digraph.h"
#include "graph/types.h"
#include "graph/ugraph.h"

namespace dcs {

// Total weight, in edge order, of the edges with v as their src (if
// `as_src`) or as their dst (if `as_dst`). Self-loops are rejected, so no
// edge counts twice.
inline double ScanDegree(const std::vector<Edge>& edges, VertexId v,
                         bool as_src, bool as_dst) {
  double total = 0;
  for (const Edge& e : edges) {
    if ((as_src && e.src == v) || (as_dst && e.dst == v)) total += e.weight;
  }
  return total;
}

inline double OutDegree(const DirectedGraph& g, VertexId v) {
  return ScanDegree(g.edges(), v, /*as_src=*/true, /*as_dst=*/false);
}

inline double InDegree(const DirectedGraph& g, VertexId v) {
  return ScanDegree(g.edges(), v, /*as_src=*/false, /*as_dst=*/true);
}

inline double Degree(const UndirectedGraph& g, VertexId v) {
  return ScanDegree(g.edges(), v, /*as_src=*/true, /*as_dst=*/true);
}

}  // namespace dcs

#endif  // DCS_TESTS_DEGREES_H_
