#include "lowerbound/twosum_solver.h"

#include "lowerbound/twosum_graph.h"
#include "lowerbound/twosum_oracle.h"
#include "util/thread_pool.h"

namespace dcs {

TwoSumSolveResult SolveTwoSumViaMinCut(const TwoSumInstance& instance,
                                       double epsilon, Rng& rng,
                                       SearchMode mode) {
  const std::vector<uint8_t> x = ConcatenateStrings(instance.x);
  const std::vector<uint8_t> y = ConcatenateStrings(instance.y);
  const int side = PerfectSquareRoot(static_cast<int64_t>(x.size()));
  const int total_int = IntersectionCount(x, y);
  DCS_CHECK_GE(side, 3 * total_int);  // Lemma 5.5 hypothesis

  // The graph is never materialized: every query the estimator makes is
  // answered by Alice and Bob exchanging the two relevant bits.
  TwoSumGraphOracle oracle(x, y);
  TwoSumSolveResult result;
  // TwoSumGraphOracle is consistent (every slot below a degree names a
  // neighbor), so the one error (kFailedPrecondition) cannot occur and
  // value() is safe.
  const LocalQueryMinCutResult mincut =
      EstimateMinCutLocalQueries(oracle, epsilon, mode, rng).value();
  result.mincut_estimate = mincut.estimate;
  result.total_queries = mincut.counts.total();
  result.communication_bits = oracle.bits_exchanged();
  // MINCUT = 2·r·α with r intersecting pairs ⇒ Σ DISJ = t − MINCUT/(2α).
  result.disjoint_estimate =
      static_cast<double>(instance.params.num_pairs) -
      mincut.estimate / (2.0 * instance.params.alpha);
  return result;
}

std::vector<TwoSumSolveResult> SolveTwoSumViaMinCutRepeated(
    const TwoSumInstance& instance, double epsilon, int repetitions,
    uint64_t base_seed, SearchMode mode, int num_threads) {
  DCS_CHECK_GE(repetitions, 0);
  std::vector<TwoSumSolveResult> results(static_cast<size_t>(repetitions));
  // Each repetition owns Rng(SubtaskSeed(base_seed, i)) and its own protocol
  // transcript, so the per-repetition results are bit-identical for every
  // num_threads.
  ParallelFor(num_threads, repetitions, [&](int64_t rep) {
    Rng rng(SubtaskSeed(base_seed, rep));
    results[static_cast<size_t>(rep)] =
        SolveTwoSumViaMinCut(instance, epsilon, rng, mode);
  });
  return results;
}

}  // namespace dcs
