// Trivial exact sketch: store the graph, answer every query exactly.
// The baseline every compressed sketch is compared against (the `exact`
// backend).

#ifndef DCS_SKETCH_EXACT_SKETCH_H_
#define DCS_SKETCH_EXACT_SKETCH_H_

#include "graph/digraph.h"
#include "sketch/cut_sketch.h"

namespace dcs {

// Exact sketch of a directed graph (stores all edges).
class ExactDirectedSketch final : public DirectedCutSketch {
 public:
  explicit ExactDirectedSketch(DirectedGraph graph);

  double EstimateCut(const VertexSet& side) const override;
  int64_t SizeInBits() const override;

  const DirectedGraph& graph() const { return graph_; }

 private:
  DirectedGraph graph_;
  int64_t size_bits_;
};

}  // namespace dcs

#endif  // DCS_SKETCH_EXACT_SKETCH_H_
