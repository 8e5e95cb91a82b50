#include "lowerbound/cut_oracle.h"

#include "graph/incremental_cut_oracle.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// Sessions tally Query/Flip calls into plain members and flush once at
// destruction (DESIGN.md §8): decoders issue thousands of session ops per
// recovered bit, so per-op registry traffic would breach the overhead
// budget.
struct SessionTally {
  int64_t queries = 0;
  int64_t flips = 0;

  ~SessionTally() {
    DCS_METRIC_ADD("cutoracle.session.query", queries);
    DCS_METRIC_ADD("cutoracle.session.flip", flips);
  }
};

// Fallback session for oracles with no incremental structure (sketches,
// ad-hoc lambdas): tracks the side and rescans on every Query.
class RescanCutQuerySession : public CutQuerySession {
 public:
  RescanCutQuerySession(CutOracle::QueryFn query, VertexSet side)
      : query_(std::move(query)), side_(std::move(side)) {
    for (uint8_t& b : side_) b = static_cast<uint8_t>(b != 0);
  }

  void Flip(VertexId v) override {
    DCS_DCHECK(v >= 0 && v < static_cast<VertexId>(side_.size()));
    ++tally_.flips;
    side_[static_cast<size_t>(v)] ^= 1;
  }

  double Query() override {
    ++tally_.queries;
    return query_(side_);
  }

 private:
  CutOracle::QueryFn query_;
  VertexSet side_;
  SessionTally tally_;
};

// Incremental session over the exact graph, with an optional per-query
// multiplicative noise factor (how the noisy oracles reuse the fast path:
// the exact value is maintained incrementally, the factor stays per-query).
class IncrementalCutSession : public CutQuerySession {
 public:
  IncrementalCutSession(const DirectedGraph& graph, VertexSet side,
                        std::function<double()> factor = nullptr)
      : cut_(graph, std::move(side)), factor_(std::move(factor)) {}

  void Flip(VertexId v) override {
    ++tally_.flips;
    cut_.Flip(v);
  }

  double Query() override {
    ++tally_.queries;
    return factor_ ? cut_.value() * factor_() : cut_.value();
  }

 private:
  IncrementalCutOracle cut_;
  std::function<double()> factor_;
  SessionTally tally_;
};

}  // namespace

std::unique_ptr<CutQuerySession> CutOracle::BeginSession(
    VertexSet side) const {
  DCS_METRIC_INC("cutoracle.session.opened");
  if (sessions_) {
    DCS_METRIC_INC("cutoracle.session.incremental");
    return sessions_(std::move(side));
  }
  DCS_METRIC_INC("cutoracle.session.rescan");
  DCS_CHECK(static_cast<bool>(query_));
  return std::make_unique<RescanCutQuerySession>(query_, std::move(side));
}

void CutOracle::AnswerMany(std::span<const VertexSet* const> sides,
                           std::span<double> out) const {
  DCS_CHECK_EQ(sides.size(), out.size());
  DCS_METRIC_ADD("cutoracle.query.served", static_cast<int64_t>(sides.size()));
  if (batch_) {
    batch_(sides, out);
    return;
  }
  for (size_t i = 0; i < sides.size(); ++i) out[i] = query_(*sides[i]);
}

CutOracle ExactCutOracle(const DirectedGraph& graph) {
  graph.BuildAdjacency();
  return CutOracle(
      [&graph](const VertexSet& side) {
        const VertexSet* const sides[] = {&side};
        double value = 0;
        graph.CutWeights(sides, std::span<double>(&value, 1));
        return value;
      },
      [&graph](VertexSet side) -> std::unique_ptr<CutQuerySession> {
        return std::make_unique<IncrementalCutSession>(graph,
                                                       std::move(side));
      },
      [&graph](std::span<const VertexSet* const> sides,
               std::span<double> out) { graph.CutWeights(sides, out); });
}

CutOracle SketchCutOracle(const DirectedCutSketch& sketch) {
  return [&sketch](const VertexSet& side) {
    return sketch.EstimateCut(side);
  };
}

CutOracle NoisyCutOracle(const DirectedGraph& graph, double relative_error,
                         Rng& rng) {
  DCS_CHECK_GE(relative_error, 0);
  graph.BuildAdjacency();
  const auto factor = [relative_error, &rng]() {
    return 1 + relative_error * (2 * rng.UniformDouble() - 1);
  };
  return CutOracle(
      [&graph, factor](const VertexSet& side) {
        return graph.CutWeight(side) * factor();
      },
      [&graph, factor](VertexSet side) -> std::unique_ptr<CutQuerySession> {
        return std::make_unique<IncrementalCutSession>(graph, std::move(side),
                                                       factor);
      });
}

CutOracle MaximalNoiseCutOracle(const DirectedGraph& graph,
                                double relative_error, Rng& rng) {
  DCS_CHECK_GE(relative_error, 0);
  graph.BuildAdjacency();
  const auto factor = [relative_error, &rng]() {
    return 1 + relative_error * rng.RandomSign();
  };
  return CutOracle(
      [&graph, factor](const VertexSet& side) {
        return graph.CutWeight(side) * factor();
      },
      [&graph, factor](VertexSet side) -> std::unique_ptr<CutQuerySession> {
        return std::make_unique<IncrementalCutSession>(graph, std::move(side),
                                                       factor);
      });
}

}  // namespace dcs
