// AGM graph sketches [AGM12]: dynamic connectivity and spanning forests
// from linear measurements.
//
// The paper's introduction singles out Ahn–Guha–McGregor (PODS 2012) as
// the key database-community result on cut sketching: Õ(n/ε²) linear
// measurements suffice to (1+ε)-approximate all cuts, and the same
// machinery gives connectivity under edge insertions *and deletions*.
// This module implements that machinery's core:
//
//  * every vertex v maintains ℓ₀-samplers over the edge-coordinate space,
//    with edge {u, v} (u < v) written as +1 into u's vector and −1 into
//    v's — so summing a component's vectors cancels internal edges and
//    leaves exactly the boundary. All samplers live in one flat
//    [round][vertex][level] array of L0Cells (DESIGN.md §12, "Sketch
//    layout");
//  * a spanning forest is extracted by Boruvka rounds: each round merges
//    component sketches (linearity!) and ℓ₀-samples one outgoing edge per
//    component, using a fresh sampler copy per round for independence.
//
// Because the sketch is linear, edge-disjoint parts can be sketched on
// different servers and merged at a coordinator — the same distributed
// pattern as src/distributed, with deletions supported.

#ifndef DCS_STREAM_AGM_SKETCH_H_
#define DCS_STREAM_AGM_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "graph/ugraph.h"
#include "stream/l0_sampler.h"
#include "util/status.h"

namespace dcs {

class AgmConnectivitySketch {
 public:
  // `rounds` independent sampler copies = Boruvka rounds supported;
  // pass 0 to use the default ceil(log2 n) + 2. Sketches must share
  // (n, rounds, seed) to be mergeable.
  AgmConnectivitySketch(int num_vertices, int rounds, uint64_t seed);

  int num_vertices() const { return num_vertices_; }
  int rounds() const { return rounds_; }

  // Dynamic unweighted edge updates (parallel edges stack; a removal must
  // match a prior insertion or the sketch's vector goes negative, which
  // still cancels correctly as long as the final multiset is a graph).
  void AddEdge(VertexId u, VertexId v);
  void RemoveEdge(VertexId u, VertexId v);

  // Adds all edges recorded in `other` (linearity; edge-disjoint parts).
  // Requires matching (n, rounds, seed) — aborts on mismatch (programmer
  // error in a single-process pipeline).
  void MergeFrom(const AgmConnectivitySketch& other);

  // Status-returning merge for paths fed by peers or configuration —
  // anything server-shaped: a mismatched (n, rounds, seed) surfaces
  // kInvalidArgument instead of taking the process down (DESIGN.md §7
  // recoverable-error convention).
  Status TryMergeFrom(const AgmConnectivitySketch& other);

  // OK iff `other` shares this sketch's (n, rounds, seed), so the two can
  // be merged; kInvalidArgument naming the first difference otherwise.
  Status CheckMergeable(const AgmConnectivitySketch& other) const;

  // Overwrites this sketch with the sum of `parts` (none = the empty
  // sketch) in one sweep over the cells, and returns the Digest() of the
  // result, folded in the same sweep. The epoch seal's primitive: no
  // zeroing pass, no read-modify-write pass per part, no digest pass.
  // Every part is checked before any cell is written, so a mismatch
  // returns kInvalidArgument with this sketch untouched.
  StatusOr<uint64_t> AssignSum(
      std::span<const AgmConnectivitySketch* const> parts);

  // FNV-style hash of every linear measurement (all sampler words, in a
  // fixed order) plus the (n, rounds, seed) identity. Two sketches digest
  // equal iff their maintained state is bit-identical (up to hash
  // collisions) — the check the streaming tests and bench_stream use to
  // assert that inserter count and flush interleaving do not change the
  // final sketch.
  uint64_t Digest() const;

  // Extracts a spanning forest via Boruvka over the sketches. Whp the
  // result spans every connected component; with bounded rounds or unlucky
  // sampling it may under-connect (never over-connect: every returned edge
  // is a real edge whp). The rvalue form runs Boruvka in this sketch's own
  // cells, leaving its measurements unspecified (AssignSum overwrites them
  // all); the const form runs it in a copy of the cells.
  std::vector<Edge> SpanningForest() &&;
  std::vector<Edge> SpanningForest() const&;

  // Number of connected components implied by SpanningForest().
  int CountComponents() const;
  bool IsConnected() const;

  // Total size of the maintained linear measurements, in bits.
  int64_t SizeInBits() const;
  // Number of scalar linear measurements maintained.
  int64_t MeasurementCount() const;

 private:
  // Per round: the level-hash seed and fingerprint base shared by every
  // vertex's sampler of that round (the same seed gives mergeability).
  struct Round {
    uint64_t seed;
    uint64_t base;
  };
  // r^(u·n) and r^u mod q for one vertex u of one round, so the power of
  // coordinate u·n + v is row(u)·col(v): one MulMod.
  struct VertexPowers {
    uint64_t row;
    uint64_t col;
  };

  // The Digest() fold of the (n, rounds, seed) identity, before any cell.
  uint64_t IdentityDigest() const;
  // Boruvka over `cells` (this sketch's layout), which it consumes.
  std::vector<Edge> ForestOfCells(std::span<L0Cell> cells) const;
  int64_t EdgeCoordinate(VertexId u, VertexId v) const;
  // Adds `low_delta` (±1) to the lower endpoint's samplers and −low_delta
  // to the higher one's at the edge's coordinate, in every round.
  void Apply(VertexId u, VertexId v, int64_t low_delta);
  // Offset of the first level cell of (round, vertex) in a cell array.
  size_t CellOffset(int round, int vertex) const {
    return (static_cast<size_t>(round) * static_cast<size_t>(num_vertices_) +
            static_cast<size_t>(vertex)) *
           static_cast<size_t>(levels_);
  }

  int num_vertices_;
  int rounds_;
  uint64_t seed_;
  int levels_;  // ℓ₀-sampler levels per (round, vertex)
  std::vector<Round> round_params_;
  // powers_[round·n + u]
  std::vector<VertexPowers> powers_;
  // Every sampler's levels, [round][vertex][level], exactly
  // rounds·n·levels cells long.
  std::vector<L0Cell> cells_;
};

// Convenience: sketch an existing unweighted graph.
AgmConnectivitySketch SketchGraph(const UndirectedGraph& graph, int rounds,
                                  uint64_t seed);

// k-edge-connectivity from linear measurements ([AGM12], Section on
// k-connectivity): maintain k independent connectivity sketches; at query
// time extract a spanning forest F₁ from the first, *delete* F₁'s edges
// from the second (linearity makes this a local subtraction), extract F₂,
// and so on. The union F₁ ∪ … ∪ F_k is a sparse certificate that preserves
// every cut up to value k — the streaming analogue of
// mincut/SparseCertificate — so cuts of size < k (in particular the global
// min cut, if below k) survive exactly.
class AgmKConnectivitySketch {
 public:
  // `k` nested forests; rounds/seed as in AgmConnectivitySketch.
  AgmKConnectivitySketch(int num_vertices, int k, int rounds, uint64_t seed);

  int num_vertices() const { return num_vertices_; }
  int k() const { return static_cast<int>(layers_.size()); }

  void AddEdge(VertexId u, VertexId v);
  void RemoveEdge(VertexId u, VertexId v);
  // Aborting / Status-returning merges, as in AgmConnectivitySketch.
  void MergeFrom(const AgmKConnectivitySketch& other);
  Status TryMergeFrom(const AgmKConnectivitySketch& other);

  // Layer by layer AgmConnectivitySketch::AssignSum: overwrites this sketch
  // with the sum of `parts` and returns the Digest() of the result. Every
  // layer of every part is checked before any cell is written.
  StatusOr<uint64_t> AssignSum(
      std::span<const AgmKConnectivitySketch* const> parts);

  // Combined digest over all k layers (see AgmConnectivitySketch::Digest).
  uint64_t Digest() const;

  // The union of the k nested forests (unit weights). Whp it preserves the
  // edge count of every cut of value < k and contains ≥ min(cut, k) edges
  // across every cut. The rvalue form peels the forests out of this
  // sketch's own layers, leaving them unspecified (AssignSum overwrites
  // them); the const form peels a copy.
  UndirectedGraph Certificate() &&;
  UndirectedGraph Certificate() const&;

  // The certificate's global min cut. Whp this equals the true min cut
  // whenever that is below k; otherwise it lies in [k, true min cut]
  // (the certificate is a subgraph, so it never overstates any cut).
  double MinCutUpToK() const;

  int64_t SizeInBits() const;

 private:
  int num_vertices_;
  std::vector<AgmConnectivitySketch> layers_;
};

// The global min cut of a k-forest certificate, as MinCutUpToK reports it:
// 0 when the certificate has no edges or is disconnected.
double CertificateMinCut(const UndirectedGraph& certificate);

}  // namespace dcs

#endif  // DCS_STREAM_AGM_SKETCH_H_
