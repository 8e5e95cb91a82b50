#include "graph/digraph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "graph/ugraph.h"

namespace dcs {

DirectedGraph::DirectedGraph(int num_vertices) : num_vertices_(num_vertices) {
  DCS_CHECK_GE(num_vertices, 0);
}

void DirectedGraph::AddEdge(VertexId src, VertexId dst, double weight) {
  DCS_CHECK(src >= 0 && src < num_vertices_);
  DCS_CHECK(dst >= 0 && dst < num_vertices_);
  DCS_CHECK_NE(src, dst);
  // NaN fails both comparisons below in confusing ways; reject it (and
  // infinities) explicitly. Untrusted inputs are screened before AddEdge by
  // graph_io / serialization, so tripping this is a caller bug.
  DCS_CHECK(std::isfinite(weight));
  DCS_CHECK_GE(weight, 0);
  edges_.push_back(Edge{src, dst, weight});
  adjacency_valid_ = false;
}

double DirectedGraph::TotalWeight() const {
  double total = 0;
  for (const Edge& e : edges_) total += e.weight;
  return total;
}

double DirectedGraph::OutDegree(VertexId v) const {
  double total = 0;
  for (int64_t id : OutEdgeIds(v)) {
    total += edges_[static_cast<size_t>(id)].weight;
  }
  return total;
}

double DirectedGraph::InDegree(VertexId v) const {
  double total = 0;
  for (int64_t id : InEdgeIds(v)) {
    total += edges_[static_cast<size_t>(id)].weight;
  }
  return total;
}

double DirectedGraph::CutWeight(const VertexSet& side) const {
  DCS_CHECK_EQ(static_cast<int>(side.size()), num_vertices_);
  double total = 0;
  for (const Edge& e : edges_) {
    if (side[static_cast<size_t>(e.src)] && !side[static_cast<size_t>(e.dst)]) {
      total += e.weight;
    }
  }
  return total;
}

namespace {

// Calls visit(edge) for the edges whose ids are ids[begin, end). The ids
// chase into the edge array — dependent loads the hardware prefetcher
// cannot follow — so prefetch a few ids ahead (within the range, so no
// stale id is dereferenced) to overlap the misses; the visit order is
// untouched.
template <typename Visit>
void VisitEdges(const std::vector<Edge>& edges,
                const std::vector<int64_t>& ids, int64_t begin, int64_t end,
                Visit visit) {
  constexpr int64_t kPrefetchDistance = 8;
  for (int64_t k = begin; k < end; ++k) {
    if (k + kPrefetchDistance < end) {
      __builtin_prefetch(&edges[static_cast<size_t>(
          ids[static_cast<size_t>(k + kPrefetchDistance)])]);
    }
    visit(edges[static_cast<size_t>(ids[static_cast<size_t>(k)])]);
  }
}

}  // namespace

void DirectedGraph::CutWeights(std::span<const VertexSet* const> sides,
                               std::span<double> out) const {
  DCS_CHECK_EQ(sides.size(), out.size());
  if (sides.empty()) return;
  EnsureAdjacency();
  const size_t n = static_cast<size_t>(num_vertices_);
  // mask[v] has bit j set iff v ∈ S_j, for the pass's j-th side (lane).
  std::vector<uint64_t> mask;
  for (size_t first = 0; first < sides.size(); first += 64) {
    const size_t lanes = std::min<size_t>(64, sides.size() - first);
    mask.assign(n, 0);
    // Every crossing edge leaves some v ∈ S and enters some u ∉ S, so a
    // lane's cut can be accumulated from either frontier; each lane walks
    // its smaller one, or scans the edge list when neither is below m.
    uint64_t out_lanes = 0;
    uint64_t in_lanes = 0;
    uint64_t scan_lanes = 0;
    for (size_t j = 0; j < lanes; ++j) {
      const VertexSet& side = *sides[first + j];
      DCS_CHECK_EQ(side.size(), n);
      int64_t out_volume = 0;
      int64_t in_volume = 0;
      for (size_t v = 0; v < n; ++v) {
        const int64_t inside = side[v] != 0;
        mask[v] |= static_cast<uint64_t>(inside) << j;
        out_volume += inside * (out_offsets_[v + 1] - out_offsets_[v]);
        in_volume += (1 - inside) * (in_offsets_[v + 1] - in_offsets_[v]);
      }
      const int64_t volume = std::min(out_volume, in_volume);
      const uint64_t lane = uint64_t{1} << j;
      if (volume == 0) continue;  // the lane's sum stays 0
      if (volume >= num_edges()) {
        scan_lanes |= lane;
      } else if (out_volume <= in_volume) {
        out_lanes |= lane;
      } else {
        in_lanes |= lane;
      }
    }
    // A lane is in exactly one pass. The pass visits the lane's frontier
    // (or the edge list) in an order that does not depend on the other
    // lanes and adds exactly the edges crossing the lane's cut, so the
    // lane's sum is the same sequence of IEEE adds as when its side is
    // asked alone.
    double sums[64] = {};
    const auto add = [&sums](uint64_t crossing, double weight) {
      for (; crossing != 0; crossing &= crossing - 1) {
        sums[std::countr_zero(crossing)] += weight;
      }
    };
    // Walks one vertex's CSR range for the lanes in `here`; crossing(e) is
    // the lanes edge e crosses. A vertex serving one lane (every vertex of
    // a one-side call) keeps that lane's sum in a register: the same adds
    // in the same order, without a store per add.
    const auto walk = [&](const std::vector<int64_t>& offsets,
                          const std::vector<int64_t>& ids, size_t v,
                          uint64_t here, auto crossing) {
      if (std::has_single_bit(here)) {
        double& sum = sums[std::countr_zero(here)];
        double total = sum;
        VisitEdges(edges_, ids, offsets[v], offsets[v + 1],
                   [&](const Edge& e) {
                     if (crossing(e) != 0) total += e.weight;
                   });
        sum = total;
      } else {
        VisitEdges(edges_, ids, offsets[v], offsets[v + 1],
                   [&](const Edge& e) { add(crossing(e), e.weight); });
      }
    };
    if (out_lanes != 0) {
      for (size_t v = 0; v < n; ++v) {
        const uint64_t here = mask[v] & out_lanes;
        if (here == 0) continue;
        walk(out_offsets_, out_edge_ids_, v, here, [&](const Edge& e) {
          return here & ~mask[static_cast<size_t>(e.dst)];
        });
      }
    }
    if (in_lanes != 0) {
      for (size_t v = 0; v < n; ++v) {
        const uint64_t here = ~mask[v] & in_lanes;
        if (here == 0) continue;
        walk(in_offsets_, in_edge_ids_, v, here, [&](const Edge& e) {
          return here & mask[static_cast<size_t>(e.src)];
        });
      }
    }
    if (scan_lanes != 0) {
      for (const Edge& e : edges_) {
        add(scan_lanes & mask[static_cast<size_t>(e.src)] &
                ~mask[static_cast<size_t>(e.dst)],
            e.weight);
      }
    }
    std::copy(sums, sums + lanes, out.begin() + static_cast<ptrdiff_t>(first));
  }
}

double DirectedGraph::CrossWeight(const VertexSet& from,
                                  const VertexSet& to) const {
  DCS_CHECK_EQ(static_cast<int>(from.size()), num_vertices_);
  DCS_CHECK_EQ(static_cast<int>(to.size()), num_vertices_);
  double total = 0;
  for (const Edge& e : edges_) {
    if (from[static_cast<size_t>(e.src)] && to[static_cast<size_t>(e.dst)]) {
      total += e.weight;
    }
  }
  return total;
}

DirectedGraph DirectedGraph::Reversed() const {
  DirectedGraph reversed(num_vertices_);
  reversed.edges_.reserve(edges_.size());
  for (const Edge& e : edges_) {
    reversed.edges_.push_back(Edge{e.dst, e.src, e.weight});
  }
  return reversed;
}

UndirectedGraph DirectedGraph::Symmetrized() const {
  // Coalesce by unordered endpoint pair so each pair yields one edge.
  std::map<std::pair<VertexId, VertexId>, double> pair_weight;
  for (const Edge& e : edges_) {
    const auto key = e.src < e.dst ? std::make_pair(e.src, e.dst)
                                   : std::make_pair(e.dst, e.src);
    pair_weight[key] += e.weight;
  }
  UndirectedGraph symmetric(num_vertices_);
  for (const auto& [key, weight] : pair_weight) {
    symmetric.AddEdge(key.first, key.second, weight);
  }
  return symmetric;
}

void DirectedGraph::MergeFrom(const DirectedGraph& other) {
  DCS_CHECK_EQ(num_vertices_, other.num_vertices_);
  edges_.insert(edges_.end(), other.edges_.begin(), other.edges_.end());
  adjacency_valid_ = false;
}

std::span<const int64_t> DirectedGraph::OutEdgeIds(VertexId v) const {
  DCS_CHECK(v >= 0 && v < num_vertices_);
  EnsureAdjacency();
  const size_t begin = static_cast<size_t>(out_offsets_[static_cast<size_t>(v)]);
  const size_t end =
      static_cast<size_t>(out_offsets_[static_cast<size_t>(v) + 1]);
  return {out_edge_ids_.data() + begin, end - begin};
}

std::span<const int64_t> DirectedGraph::InEdgeIds(VertexId v) const {
  DCS_CHECK(v >= 0 && v < num_vertices_);
  EnsureAdjacency();
  const size_t begin = static_cast<size_t>(in_offsets_[static_cast<size_t>(v)]);
  const size_t end =
      static_cast<size_t>(in_offsets_[static_cast<size_t>(v) + 1]);
  return {in_edge_ids_.data() + begin, end - begin};
}

void DirectedGraph::EnsureAdjacency() const {
  if (adjacency_valid_) return;
  const size_t n = static_cast<size_t>(num_vertices_);
  // Counting sort into CSR: count degrees, prefix-sum into offsets, then
  // scatter edge ids (a second pass restores the offsets).
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++out_offsets_[static_cast<size_t>(e.src) + 1];
    ++in_offsets_[static_cast<size_t>(e.dst) + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    out_offsets_[v + 1] += out_offsets_[v];
    in_offsets_[v + 1] += in_offsets_[v];
  }
  out_edge_ids_.resize(edges_.size());
  in_edge_ids_.resize(edges_.size());
  std::vector<int64_t> out_cursor(out_offsets_.begin(),
                                  out_offsets_.end() - 1);
  std::vector<int64_t> in_cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (size_t id = 0; id < edges_.size(); ++id) {
    out_edge_ids_[static_cast<size_t>(
        out_cursor[static_cast<size_t>(edges_[id].src)]++)] =
        static_cast<int64_t>(id);
    in_edge_ids_[static_cast<size_t>(
        in_cursor[static_cast<size_t>(edges_[id].dst)]++)] =
        static_cast<int64_t>(id);
  }
  adjacency_valid_ = true;
}

}  // namespace dcs
