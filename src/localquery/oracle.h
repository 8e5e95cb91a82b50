// The local query model (Section 1 / Section 5 of the paper).
//
// The algorithm knows the vertex set but not the edges, and may only issue:
//   1. Degree queries    — deg(u)
//   2. Edge queries      — the i-th neighbor of u (⊥ if i > deg(u))
//   3. Adjacency queries — is (u, v) an edge?
// The oracle counts every query; Lemma 5.6's reduction charges 2 bits of
// Alice–Bob communication per edge/adjacency query (degree queries are free
// on the regular G_{x,y} instances), which CommunicationBits() reports.
//
// Semantics are for unweighted multigraphs: parallel edges occupy separate
// neighbor slots and add to the degree; weights on the underlying graph are
// ignored (CHECKed to be 1 at construction).

#ifndef DCS_LOCALQUERY_ORACLE_H_
#define DCS_LOCALQUERY_ORACLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/ugraph.h"
#include "util/metrics.h"

namespace dcs {

// Abstract oracle interface: any implementation that can answer the three
// local queries (with accounting) can drive VERIFY-GUESS and the min-cut
// estimators — a materialized graph (GraphOracle) or a two-party
// simulation computing answers from distributed inputs (TwoSumGraphOracle).
// Queries cannot fail. An oracle must be consistent: Neighbor(u, slot)
// returns a vertex for every slot < Degree(u). VerifyGuess reports a
// violation as kFailedPrecondition.
class LocalQueryOracle {
 public:
  struct QueryCounts {
    int64_t degree = 0;
    int64_t neighbor = 0;
    int64_t adjacency = 0;
    int64_t total() const { return degree + neighbor + adjacency; }
  };

  virtual ~LocalQueryOracle() = default;

  // Known to the algorithm for free.
  virtual int num_vertices() const = 0;

  // Degree query.
  virtual int64_t Degree(VertexId u) = 0;

  // Edge query: the i-th neighbor of u (0-based slot), or nullopt if
  // i >= deg(u).
  virtual std::optional<VertexId> Neighbor(VertexId u, int64_t slot) = 0;

  // Adjacency query.
  virtual bool Adjacent(VertexId u, VertexId v) = 0;

  const QueryCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = QueryCounts{}; }

  // Communication cost of the queries so far under the Lemma 5.6
  // simulation: 2 bits per neighbor/adjacency query.
  int64_t CommunicationBits() const {
    return 2 * (counts_.neighbor + counts_.adjacency);
  }

 protected:
  // Implementations tally through these (not by touching counts_ directly)
  // so the per-oracle accounting and the process-wide metrics registry
  // (`localquery.*.issued`) stay in lockstep.
  void TallyDegreeQuery() {
    ++counts_.degree;
    DCS_METRIC_INC("localquery.degree.issued");
  }
  void TallyNeighborQuery() {
    ++counts_.neighbor;
    DCS_METRIC_INC("localquery.neighbor.issued");
  }
  void TallyAdjacencyQuery() {
    ++counts_.adjacency;
    DCS_METRIC_INC("localquery.adjacency.issued");
  }

  QueryCounts counts_;
};

// Oracle over a materialized unweighted multigraph.
class GraphOracle final : public LocalQueryOracle {
 public:
  // The graph must be unweighted (all weights exactly 1) and outlive the
  // oracle.
  explicit GraphOracle(const UndirectedGraph& graph);

  int num_vertices() const override { return num_vertices_; }
  int64_t Degree(VertexId u) override;
  std::optional<VertexId> Neighbor(VertexId u, int64_t slot) override;
  bool Adjacent(VertexId u, VertexId v) override;

 private:
  int num_vertices_;
  std::vector<std::vector<VertexId>> neighbors_;
};

}  // namespace dcs

#endif  // DCS_LOCALQUERY_ORACLE_H_
