// (1±ε) global min-cut estimation in the local query model
// ([BGMP21] and the paper's Theorem 5.7 refinement).
//
// Both variants run the same guess-halving search, starting from t = n and
// halving until VERIFY-GUESS accepts, then issue one final VERIFY-GUESS at
// a guess shrunk below k to harvest the (1±ε) estimate. They differ only
// in the accuracy of the *search* calls:
//
//  * kOriginalEpsilonSearch — search calls use ε (as in [BGMP21]); the
//    final guess must be shrunk by κ = Θ(log(n)/ε²), so the final call
//    costs Õ(m/(ε⁴·k)) queries (capped at Θ(m) when the sampling rate
//    saturates).
//  * kModifiedConstantSearch — search calls use a constant β₀ (the paper's
//    observation, Section 5.4); the final shrink is only Θ(log n), so the
//    final call costs Õ(m/(ε²·k)), matching the Theorem 1.3 lower bound.

#ifndef DCS_LOCALQUERY_MINCUT_ESTIMATOR_H_
#define DCS_LOCALQUERY_MINCUT_ESTIMATOR_H_

#include "localquery/oracle.h"
#include "localquery/verify_guess.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

// Which accuracy the guess-halving search runs at.
enum class SearchMode {
  kOriginalEpsilonSearch,
  kModifiedConstantSearch,
};

// Tuning knobs (theory constants scaled down to practical sizes).
struct MinCutEstimatorOptions {
  double search_beta0 = 0.5;  // constant accuracy for kModifiedConstantSearch
  double oversample_c = 2.0;  // sampling-rate constant inside VERIFY-GUESS
  double kappa_c = 2.0;       // constant in the final-guess shrink factor κ
};

// Result of a full estimation run.
struct LocalQueryMinCutResult {
  double estimate = 0;
  int verify_guess_calls = 0;
  LocalQueryOracle::QueryCounts counts;  // cumulative across all calls
  int64_t communication_bits = 0;        // Lemma 5.6 accounting
};

// Estimates the global min cut behind `oracle` (an unweighted, connected
// graph) to a (1±ε) factor using only local queries. Query counts
// accumulate on the oracle. Returns VerifyGuess's kFailedPrecondition if
// the oracle is inconsistent (⊥ for an in-range neighbor slot).
StatusOr<LocalQueryMinCutResult> EstimateMinCutLocalQueries(
    LocalQueryOracle& oracle, double epsilon, SearchMode mode, Rng& rng,
    const MinCutEstimatorOptions& options = MinCutEstimatorOptions{});

// Convenience overload over a materialized graph. GraphOracle is
// consistent, so this returns the result directly.
LocalQueryMinCutResult EstimateMinCutLocalQueries(
    const UndirectedGraph& graph, double epsilon, SearchMode mode, Rng& rng,
    const MinCutEstimatorOptions& options = MinCutEstimatorOptions{});

}  // namespace dcs

#endif  // DCS_LOCALQUERY_MINCUT_ESTIMATOR_H_
