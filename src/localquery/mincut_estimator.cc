#include "localquery/mincut_estimator.h"

#include <algorithm>
#include <cmath>

namespace dcs {

LocalQueryMinCutResult EstimateMinCutLocalQueries(
    const UndirectedGraph& graph, double epsilon, SearchMode mode, Rng& rng,
    const MinCutEstimatorOptions& options) {
  GraphOracle oracle(graph);
  // GraphOracle is consistent, so VerifyGuess's one error
  // (kFailedPrecondition) cannot occur and value() is safe.
  return EstimateMinCutLocalQueries(oracle, epsilon, mode, rng, options)
      .value();
}

StatusOr<LocalQueryMinCutResult> EstimateMinCutLocalQueries(
    LocalQueryOracle& oracle, double epsilon, SearchMode mode, Rng& rng,
    const MinCutEstimatorOptions& options) {
  DCS_CHECK(epsilon > 0 && epsilon < 1);
  const int n = oracle.num_vertices();
  DCS_CHECK_GE(n, 2);
  const double log_n = std::log(std::max(3, n));
  const double search_epsilon = mode == SearchMode::kOriginalEpsilonSearch
                                    ? epsilon
                                    : options.search_beta0;

  LocalQueryMinCutResult result;
  // Guess-halving search: the min cut is at most the minimum degree, which
  // costs n degree queries to learn (multigraphs can have k ≫ n, so
  // starting at n would be wrong).
  double min_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    const double degree = static_cast<double>(oracle.Degree(v));
    if (v == 0 || degree < min_degree) min_degree = degree;
  }
  double t = std::max(1.0, min_degree);
  while (t >= 1.0) {
    DCS_ASSIGN_OR_RETURN(const VerifyGuessResult vg,
                         VerifyGuess(oracle, t, search_epsilon, rng,
                                     options.oversample_c));
    ++result.verify_guess_calls;
    if (vg.accepted) break;
    t /= 2;
  }
  t = std::max(t, 1.0);
  // Final harvest call at a guess shrunk safely below k.
  const double kappa =
      options.kappa_c * log_n / (search_epsilon * search_epsilon);
  const double final_guess = std::max(1.0, t / kappa);
  DCS_ASSIGN_OR_RETURN(const VerifyGuessResult final_vg,
                       VerifyGuess(oracle, final_guess, epsilon, rng,
                                   options.oversample_c));
  ++result.verify_guess_calls;
  result.estimate = final_vg.estimate;
  result.counts = oracle.counts();
  result.communication_bits = oracle.CommunicationBits();
  return result;
}

}  // namespace dcs
