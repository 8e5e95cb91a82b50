#include "sketch/exact_sketch.h"

#include <utility>

#include "sketch/serialization.h"

namespace dcs {

ExactDirectedSketch::ExactDirectedSketch(DirectedGraph graph)
    : graph_(std::move(graph)), size_bits_(SerializedSizeInBits(graph_)) {}

double ExactDirectedSketch::EstimateCut(const VertexSet& side) const {
  return graph_.CutWeight(side);
}

int64_t ExactDirectedSketch::SizeInBits() const { return size_bits_; }

}  // namespace dcs
