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
// one, or scans the edge list when neither is below m.
enum Mode : uint8_t { kEmpty, kOut, kIn, kScan };

// One pass of up to 64 sides: each side's mode, and its lane, numbered by
// mode (out-walk lanes first, then in-walk, then scan) so each walk hands
// the lane kernel only its own run of lanes.
struct PassLanes {
  Mode mode[64] = {};
  size_t lane_of[64] = {};
  size_t num_lanes[4] = {};
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
    pass.mode[j] = volume == 0                ? kEmpty  // the sum stays 0
                   : volume >= m              ? kScan
                   : out_volume <= in_volume ? kOut
                                              : kIn;
    ++pass.num_lanes[pass.mode[j]];
  }
  size_t next_lane[4] = {0, 0, pass.num_lanes[kOut],
                         pass.num_lanes[kOut] + pass.num_lanes[kIn]};
  for (size_t j = 0; j < sides.size(); ++j) {
    if (pass.mode[j] != kEmpty) pass.lane_of[j] = next_lane[pass.mode[j]]++;
  }
  // An empty side's row is dropped; row i of block w becomes vertex
  // 64w + i's lane bits. Lanes [0, next_lane[kScan]) are in use.
  const size_t lanes = next_lane[kScan];
  for (size_t w = 0; w < words; ++w) {
    const std::span<uint64_t> block = mask.subspan(64 * w, 64);
    uint64_t rows[64] = {};
    for (size_t j = 0; j < sides.size(); ++j) {
      if (pass.mode[j] != kEmpty) rows[pass.lane_of[j]] = block[j];
    }
    TransposeBits64(rows, lanes);
    std::copy(rows, rows + 64, block.begin());
  }
  return pass;
}

// Runs one pass of the lane kernel: visit(add) calls add(crossing, weight)
// for each visited edge, with bit j of `crossing` set iff the edge crosses
// lane j's cut. The pairs queue in visit order and drain through
// simd::AddCrossingLanes into sums[0, lanes), so every lane sees its edges
// in visit order.
template <typename Visit>
void AccumulateLanes(double* sums, size_t lanes, Visit visit) {
  constexpr size_t kQueue = 256;
  uint64_t crossing[kQueue] = {};
  double weights[kQueue] = {};
  size_t queued = 0;
  visit([&](uint64_t edge_crossing, double weight) {
    crossing[queued] = edge_crossing;
    weights[queued] = weight;
    if (++queued == kQueue) {
      simd::AddCrossingLanes(sums, lanes, crossing, weights, queued);
      queued = 0;
    }
  });
  simd::AddCrossingLanes(sums, lanes, crossing, weights, queued);
}

}  // namespace

void DirectedGraph::CutWeights(std::span<const VertexSet* const> sides,
                               std::span<double> out) const {
  DCS_CHECK_EQ(sides.size(), out.size());
  if (sides.empty()) return;
  EnsureAdjacency();
  const size_t n = static_cast<size_t>(num_vertices_);
  // The current pass's lane masks (PackPass): a block of 64 words per
  // word of vertices, so mask[v] exists for every v < n.
  std::vector<uint64_t> mask(64 * PackedWordCount(n));
  for (size_t first = 0; first < sides.size(); first += 64) {
    const size_t count = std::min<size_t>(64, sides.size() - first);
    const PassLanes pass = PackPass(sides.subspan(first, count), out_offsets_,
                                    in_offsets_, mask);
    const size_t* num_lanes = pass.num_lanes;
    const size_t in_base = num_lanes[kOut];
    const size_t scan_base = in_base + num_lanes[kIn];
    const auto lane_bits = [](size_t base, size_t lanes) {
      return lanes == 0 ? 0 : (~uint64_t{0} >> (64 - lanes)) << base;
    };
    const uint64_t out_lanes = lane_bits(0, num_lanes[kOut]);
    const uint64_t in_lanes = lane_bits(in_base, num_lanes[kIn]);
    const uint64_t scan_lanes = lane_bits(scan_base, num_lanes[kScan]);
    // Each pass visits its lanes' frontiers (or the edge list) in an order
    // that does not depend on the other sides and adds exactly the edges
    // crossing each lane's cut, so a side's sum is the same sequence of
    // IEEE adds as when it is asked alone.
    double sums[64] = {};
    if (out_lanes != 0) {
      AccumulateLanes(sums, num_lanes[kOut], [&](auto add) {
        for (size_t v = 0; v < n; ++v) {
          const uint64_t here = mask[v] & out_lanes;
          if (here == 0) continue;
          VisitEdges(edges_, out_edge_ids_, out_offsets_[v],
                     out_offsets_[v + 1], [&](const Edge& e) {
                       add(here & ~mask[static_cast<size_t>(e.dst)],
                           e.weight);
                     });
        }
      });
    }
    if (in_lanes != 0) {
      AccumulateLanes(sums + in_base, num_lanes[kIn], [&](auto add) {
        for (size_t v = 0; v < n; ++v) {
          const uint64_t here = ~mask[v] & in_lanes;
          if (here == 0) continue;
          VisitEdges(edges_, in_edge_ids_, in_offsets_[v], in_offsets_[v + 1],
                     [&](const Edge& e) {
                       add((here & mask[static_cast<size_t>(e.src)]) >>
                               in_base,
                           e.weight);
                     });
        }
      });
    }
    if (scan_lanes != 0) {
      AccumulateLanes(sums + scan_base, num_lanes[kScan], [&](auto add) {
        for (const Edge& e : edges_) {
          add((scan_lanes & mask[static_cast<size_t>(e.src)] &
               ~mask[static_cast<size_t>(e.dst)]) >>
                  scan_base,
              e.weight);
        }
      });
    }
    for (size_t j = 0; j < count; ++j) {
      out[first + j] =
          pass.mode[j] == kEmpty ? 0.0 : sums[pass.lane_of[j]];
    }
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
