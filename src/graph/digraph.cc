#include "graph/digraph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "graph/ugraph.h"
#include "util/simd.h"

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
}

double DirectedGraph::TotalWeight() const {
  double total = 0;
  for (const Edge& e : edges_) total += e.weight;
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

namespace {

// One direction of a CutIndex over `edges` on n vertices, by counting sort:
// count each vertex's arcs, prefix-sum into offsets, then place each edge's
// far endpoint and weight at its vertex's cursor, in edge order. An out-arc
// is keyed by its tail and ends at its head; an in-arc the other way round.
CutIndex::Arcs BuildArcs(const std::vector<Edge>& edges, size_t n, bool out) {
  CutIndex::Arcs arcs;
  arcs.offsets.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++arcs.offsets[static_cast<size_t>(out ? e.src : e.dst) + 1];
  }
  for (size_t v = 0; v < n; ++v) arcs.offsets[v + 1] += arcs.offsets[v];
  arcs.neighbors.resize(edges.size());
  arcs.weights.resize(edges.size());
  std::vector<int64_t> cursor(arcs.offsets.begin(), arcs.offsets.end() - 1);
  for (const Edge& e : edges) {
    const size_t at = static_cast<size_t>(
        cursor[static_cast<size_t>(out ? e.src : e.dst)]++);
    arcs.neighbors[at] = out ? e.dst : e.src;
    arcs.weights[at] = e.weight;
  }
  return arcs;
}

// Transposes the 64×64 bit matrix whose row r is rows[r] (column c = bit
// c): afterwards bit c of rows[r] is the old bit r of rows[c]. Rows at or
// above `used` must be zero. The round at `half` swaps that bit of the row
// index with the same bit of the column index; the rounds commute, so they
// run from half = 1 up, and each visits only the rows that can be nonzero
// by then: those below `used` rounded up to a multiple of 2·half.
void TransposeBits64(uint64_t rows[64], size_t used) {
  constexpr uint64_t kKeep[] = {0x5555555555555555ULL, 0x3333333333333333ULL,
                                0x0F0F0F0F0F0F0F0FULL, 0x00FF00FF00FF00FFULL,
                                0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};
  for (size_t level = 0; level < 6; ++level) {
    const size_t half = size_t{1} << level;
    const size_t end = (used + 2 * half - 1) & ~(2 * half - 1);
    for (size_t r = 0; r < end; r = ((r | half) + 1) & ~half) {
      const uint64_t swap = ((rows[r] >> half) ^ rows[r | half]) & kKeep[level];
      rows[r] ^= swap << half;
      rows[r | half] ^= swap;
    }
  }
}

// Every crossing edge leaves some v ∈ S and enters some u ∉ S, so a side's
// cut can be accumulated from either frontier; each side walks its smaller
// one. Neither walk is needed when that frontier is empty (the cut is 0)
// or when both frontiers hold all m edges (every edge crosses). The two
// walking modes come first, so they index PassLanes::num_lanes.
enum Mode : uint8_t { kOut, kIn, kNone, kAll };

// One pass of up to 64 sides: each side's mode, and the lane of each side
// that walks, numbered out-walk lanes first, then in-walk, so each walk
// hands the lane kernel only its own run of lanes.
struct PassLanes {
  Mode mode[64] = {};
  size_t lane_of[64] = {};
  size_t num_lanes[2] = {};
};

// Classifies the sides of one pass and builds mask[v], bit b set iff v ∈ S
// for the side in lane b, for v < n = out_offsets.size() − 1. Each side is
// packed once: its word w goes to row j of block w, mask[64w, 64w + 64),
// and its out-volume and the in-volume of S (whose complement in m is the
// in-volume of V∖S) are read from the CSR offsets of its members. Then
// each block's rows are put in lane order and transposed. Kept out of line
// so the walks' register allocation in CutWeights does not carry it.
[[gnu::noinline]] PassLanes PackPass(std::span<const VertexSet* const> sides,
                                     std::span<const int64_t> out_offsets,
                                     std::span<const int64_t> in_offsets,
                                     std::span<uint64_t> mask) {
  const size_t n = out_offsets.size() - 1;
  const int64_t m = out_offsets[n];
  const size_t words = mask.size() / 64;
  PassLanes pass;
  for (size_t j = 0; j < sides.size(); ++j) {
    const VertexSet& side = *sides[j];
    DCS_CHECK_EQ(side.size(), n);
    int64_t out_volume = 0;
    int64_t inside = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t word = PackMembers64(side, w);
      mask[64 * w + j] = word;
      for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
        const size_t v = 64 * w + static_cast<size_t>(std::countr_zero(bits));
        out_volume += out_offsets[v + 1] - out_offsets[v];
        inside += in_offsets[v + 1] - in_offsets[v];
      }
    }
    const int64_t in_volume = m - inside;
    const int64_t volume = std::min(out_volume, in_volume);
    pass.mode[j] = volume == 0                ? kNone
                   : volume >= m              ? kAll
                   : out_volume <= in_volume ? kOut
                                              : kIn;
    if (pass.mode[j] <= kIn) ++pass.num_lanes[pass.mode[j]];
  }
  size_t next_lane[2] = {0, pass.num_lanes[kOut]};
  for (size_t j = 0; j < sides.size(); ++j) {
    if (pass.mode[j] <= kIn) pass.lane_of[j] = next_lane[pass.mode[j]]++;
  }
  // A side that does not walk drops its row; row i of block w becomes
  // vertex 64w + i's lane bits. Lanes [0, next_lane[kIn]) are in use.
  const size_t lanes = next_lane[kIn];
  for (size_t w = 0; w < words; ++w) {
    const std::span<uint64_t> block = mask.subspan(64 * w, 64);
    uint64_t rows[64] = {};
    for (size_t j = 0; j < sides.size(); ++j) {
      if (pass.mode[j] <= kIn) rows[pass.lane_of[j]] = block[j];
    }
    TransposeBits64(rows, lanes);
    std::copy(rows, rows + 64, block.begin());
  }
  return pass;
}

// Runs one walk of the lane kernel over one direction's arcs: for each
// vertex v < n, in order, with lane bits here = lanes_of(v) nonzero, each
// of v's arcs, in CSR order, queues (crossing(here, far endpoint), weight),
// where bit j of the crossing mask is set iff the arc crosses lane j's cut.
// The queue drains through simd::AddCrossingLanes into sums[0, lanes), so
// every lane sees its arcs in walk order. The per-arc loop stops where the
// queue fills, and the drain runs outside it, so that loop makes no call
// and keeps the array pointers in registers.
template <typename LanesOf, typename Crossing>
void WalkLanes(double* sums, size_t lanes, size_t n, const int64_t* offsets,
               const VertexId* neighbors, const double* weights,
               LanesOf lanes_of, Crossing crossing) {
  constexpr int64_t kQueue = 256;
  uint64_t queued_crossing[kQueue] = {};
  double queued_weights[kQueue] = {};
  int64_t queued = 0;
  for (size_t v = 0; v < n; ++v) {
    const uint64_t here = lanes_of(v);
    if (here == 0) continue;
    const int64_t end = offsets[v + 1];
    for (int64_t k = offsets[v]; k < end;) {
      const int64_t stop = std::min(end, k + (kQueue - queued));
      for (; k < stop; ++k, ++queued) {
        const size_t at = static_cast<size_t>(k);
        queued_crossing[queued] = crossing(here, neighbors[at]);
        queued_weights[queued] = weights[at];
      }
      if (queued == kQueue) {
        simd::AddCrossingLanes(sums, lanes, queued_crossing, queued_weights,
                               kQueue);
        queued = 0;
      }
    }
  }
  simd::AddCrossingLanes(sums, lanes, queued_crossing, queued_weights,
                         static_cast<size_t>(queued));
}

}  // namespace

CutIndex::CutIndex(const DirectedGraph& graph)
    : num_vertices_(graph.num_vertices()),
      total_weight_(graph.TotalWeight()),
      out_(BuildArcs(graph.edges(), static_cast<size_t>(num_vertices_),
                     /*out=*/true)),
      in_(BuildArcs(graph.edges(), static_cast<size_t>(num_vertices_),
                    /*out=*/false)) {}

void CutIndex::CutWeights(std::span<const VertexSet* const> sides,
                          std::span<double> out) const {
  DCS_CHECK_EQ(sides.size(), out.size());
  if (sides.empty()) return;
  const size_t n = static_cast<size_t>(num_vertices_);
  // The current pass's lane masks (PackPass): a block of 64 words per
  // word of vertices, so mask[v] exists for every v < n.
  std::vector<uint64_t> mask(64 * PackedWordCount(n));
  const uint64_t* const lane_mask = mask.data();
  for (size_t first = 0; first < sides.size(); first += 64) {
    const size_t count = std::min<size_t>(64, sides.size() - first);
    const PassLanes pass = PackPass(sides.subspan(first, count),
                                    out_.offsets, in_.offsets, mask);
    const size_t out_count = pass.num_lanes[kOut];
    const size_t in_count = pass.num_lanes[kIn];
    // Each walk visits its lanes' frontiers in an order that does not
    // depend on the other sides and adds exactly the arcs crossing each
    // lane's cut, so a side's sum is the same sequence of IEEE adds as when
    // it is asked alone.
    double sums[64] = {};
    if (out_count != 0) {
      const uint64_t out_lanes = ~uint64_t{0} >> (64 - out_count);
      WalkLanes(
          sums, out_count, n, out_.offsets.data(), out_.neighbors.data(),
          out_.weights.data(),
          [=](size_t v) { return lane_mask[v] & out_lanes; },
          [=](uint64_t here, VertexId head) {
            return here & ~lane_mask[static_cast<size_t>(head)];
          });
    }
    if (in_count != 0) {
      const uint64_t in_lanes = (~uint64_t{0} >> (64 - in_count)) << out_count;
      WalkLanes(
          sums + out_count, in_count, n, in_.offsets.data(),
          in_.neighbors.data(), in_.weights.data(),
          [=](size_t v) { return ~lane_mask[v] & in_lanes; },
          [=](uint64_t here, VertexId tail) {
            return (here & lane_mask[static_cast<size_t>(tail)]) >> out_count;
          });
    }
    for (size_t j = 0; j < count; ++j) {
      switch (pass.mode[j]) {
        case kNone: out[first + j] = 0.0; break;
        case kAll: out[first + j] = total_weight_; break;
        default: out[first + j] = sums[pass.lane_of[j]];
      }
    }
  }
}

}  // namespace dcs
