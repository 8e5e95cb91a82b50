// Cut oracles: the decoder-facing abstraction of "a sketch Bob can query".
//
// The lower-bound decoders (Sections 3 and 4) only ever interact with
// Alice's sketch through cut-value queries. CutOracle wraps the query
// function — so the same decoder runs against (a) the exact graph, (b) any
// DirectedCutSketch implementation, or (c) an adversarially/randomly
// perturbed oracle with a prescribed relative error — and, when the backing
// store supports it, hands out *incremental query sessions*: the decoders'
// query sequences (Gray-code subset enumeration, greedy marginals, the four
// inclusion–exclusion sides of a for-each probe) walk sides that differ in
// a few vertices, so a session maintains the value under Flip(v) in
// O(deg(v)) instead of rescanning all m edges per query.

#ifndef DCS_LOWERBOUND_CUT_ORACLE_H_
#define DCS_LOWERBOUND_CUT_ORACLE_H_

#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "graph/digraph.h"
#include "sketch/cut_sketch.h"
#include "util/metrics.h"
#include "util/random.h"

namespace dcs {

// A stateful cursor over cut sides: Flip moves one vertex across the cut,
// Query returns the oracle's estimate for the current side. For noisy
// oracles every Query draws fresh noise, exactly as a standalone query
// would.
class CutQuerySession {
 public:
  virtual ~CutQuerySession() = default;

  // Moves v to the other side of the cut.
  virtual void Flip(VertexId v) = 0;

  // The oracle's estimate of w(S, V∖S) for the current side.
  virtual double Query() = 0;
};

// Answers directed cut queries w(S, V∖S) (possibly approximately).
//
// Implicitly constructible from any callable double(const VertexSet&), so
// ad-hoc lambdas keep working; oracles built by the factories below
// additionally carry an incremental session factory, and the exact oracle
// a batch function that answers many sides in one pass. BeginSession
// always succeeds — oracles without incremental support get a fallback
// session that rescans via the query function.
class CutOracle {
 public:
  using QueryFn = std::function<double(const VertexSet&)>;
  using SessionFactory =
      std::function<std::unique_ptr<CutQuerySession>(VertexSet)>;
  // Writes the answer for sides[i] into out[i]; must agree bit for bit
  // with QueryFn on every side, so callers may batch or not at will.
  using BatchFn = std::function<void(std::span<const VertexSet* const>,
                                     std::span<double>)>;

  CutOracle() = default;

  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<double, F&, const VertexSet&> &&
                !std::is_same_v<std::remove_cvref_t<F>, CutOracle>>>
  CutOracle(F&& query)  // NOLINT(google-explicit-constructor)
      : query_(std::forward<F>(query)) {}

  CutOracle(QueryFn query, SessionFactory sessions, BatchFn batch = nullptr)
      : query_(std::move(query)),
        sessions_(std::move(sessions)),
        batch_(std::move(batch)) {}

  // One-shot query. Counted separately from session queries so tests can
  // assert a decoder used only its sessions (metrics_bounds_test).
  double operator()(const VertexSet& side) const {
    DCS_METRIC_INC("cutoracle.query.served");
    return query_(side);
  }

  // out[i] = (*this)(*sides[i]) for every i, through the batch function
  // when there is one. Counts sides.size() one-shot queries.
  void AnswerMany(std::span<const VertexSet* const> sides,
                  std::span<double> out) const;

  explicit operator bool() const { return static_cast<bool>(query_); }

  // Starts an incremental session positioned at `side`.
  std::unique_ptr<CutQuerySession> BeginSession(VertexSet side) const;

  // True if AnswerMany answers its sides in one batched pass.
  bool has_batch() const { return static_cast<bool>(batch_); }

 private:
  QueryFn query_;
  SessionFactory sessions_;
  BatchFn batch_;
};

// Oracle factories taking a per-trial random stream; used by the parallel
// trial runners so every trial's randomness is self-contained.
using SeededCutOracleFactory =
    std::function<CutOracle(const DirectedGraph&, Rng&)>;

// Exact oracle over the graph's CutIndex, built here once and shared with
// every session. One-shot and batched queries both run
// CutIndex::CutWeights (one side, or all of them); sessions are O(deg)
// incremental and start from the graph's edge scan, so the graph must
// outlive the oracle.
CutOracle ExactCutOracle(const DirectedGraph& graph);

// The same one-shot and batched queries over an index alone, for holders
// that keep no graph (the serving layer); its sessions rescan.
CutOracle IndexCutOracle(std::shared_ptr<const CutIndex> index);

// Oracle backed by a sketch (the sketch must outlive the oracle).
CutOracle SketchCutOracle(const DirectedCutSketch& sketch);

// Exact value perturbed by independent uniform multiplicative noise in
// [1−relative_error, 1+relative_error]. The graph and the rng must outlive
// the oracle; its sessions share one CutIndex of the graph.
// This models a generic (1±ε) sketch with fresh randomness per query.
CutOracle NoisyCutOracle(const DirectedGraph& graph, double relative_error,
                         Rng& rng);

// Worst-case (1±relative_error) oracle: each query is perturbed by a
// *sign-random but maximal* factor (exactly 1±relative_error). Decoders
// must survive this to claim robustness at a given error level.
// Lifetimes as for NoisyCutOracle.
CutOracle MaximalNoiseCutOracle(const DirectedGraph& graph,
                                double relative_error, Rng& rng);

}  // namespace dcs

#endif  // DCS_LOWERBOUND_CUT_ORACLE_H_
