// Incremental directed cut maintenance under single-vertex side flips.
//
// The decoders of the lower-bound protocols (Sections 3–4) evaluate the cut
// function on long sequences of sides that differ in one vertex — Gray-code
// enumeration of half-size subsets, greedy single-swap refinement, the four
// inclusion–exclusion sides of a for-each query. Rescanning all m edges per
// side costs O(m) each; maintaining the value under a flip costs O(deg(v)):
// moving v across the cut only changes the crossing status of edges incident
// to v, and the sign of each contribution is determined by which side the
// *other* endpoint is on.

#ifndef DCS_GRAPH_INCREMENTAL_CUT_ORACLE_H_
#define DCS_GRAPH_INCREMENTAL_CUT_ORACLE_H_

#include "graph/digraph.h"
#include "graph/types.h"

namespace dcs {

// Maintains w(S, V∖S) for a mutable side S over a fixed graph.
//
// The initial value is the graph's O(m) edge-order scan; each Flip(v) is
// O(deg(v)) over `index`, which must be CutIndex(graph). Only the index is
// kept, and it must outlive the oracle.
class IncrementalCutOracle {
 public:
  IncrementalCutOracle(const DirectedGraph& graph, const CutIndex& index,
                       VertexSet side);

  // Flushes the per-object flip tallies into the metrics registry
  // (`graph.inccut.*`). Flip itself stays metric-free: per-flip registry
  // traffic would dominate the O(deg) update this class exists to provide
  // (DESIGN.md §8's object-scope aggregation rule).
  ~IncrementalCutOracle();

  // Current cut value w(S, V∖S).
  double value() const { return value_; }
  // Current side S.
  const VertexSet& side() const { return side_; }

  // Moves v to the other side of the cut and updates value() in O(deg(v)).
  void Flip(VertexId v);

 private:
  const CutIndex& index_;
  VertexSet side_;
  double value_;
  // Lifetime tallies flushed by the destructor (see above).
  int64_t flips_ = 0;
  int64_t flip_edges_ = 0;
};

}  // namespace dcs

#endif  // DCS_GRAPH_INCREMENTAL_CUT_ORACLE_H_
