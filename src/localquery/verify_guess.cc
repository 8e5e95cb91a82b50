#include "localquery/verify_guess.h"

#include <algorithm>
#include <cmath>

#include "graph/connectivity.h"
#include "mincut/stoer_wagner.h"

namespace dcs {

StatusOr<VerifyGuessResult> VerifyGuess(LocalQueryOracle& oracle,
                                        double guess_t, double epsilon,
                                        Rng& rng, double oversample_c) {
  DCS_CHECK_GE(guess_t, 1.0);
  DCS_CHECK(epsilon > 0 && epsilon < 1);
  const int n = oracle.num_vertices();
  DCS_CHECK_GE(n, 2);
  const double log_n = std::log(std::max(3, n));
  const double p = std::min(
      1.0, oversample_c * log_n / (epsilon * epsilon * guess_t));

  VerifyGuessResult result;
  result.sample_probability = p;
  // Sample each neighbor slot independently with probability p. Each
  // undirected edge occupies one slot at each endpoint, so a sampled slot
  // contributes weight 1/(2p): the expected sampled weight of every edge
  // (and hence of every cut) is exactly its true value.
  UndirectedGraph sample(n);
  const double slot_weight = 1.0 / (2.0 * p);
  for (VertexId u = 0; u < n; ++u) {
    const int64_t degree = oracle.Degree(u);
    const int64_t picks = rng.Binomial(degree, p);
    if (picks == 0) continue;
    const std::vector<int> slots =
        rng.RandomSubset(static_cast<int>(degree), static_cast<int>(picks));
    for (int slot : slots) {
      const std::optional<VertexId> neighbor = oracle.Neighbor(u, slot);
      if (!neighbor.has_value()) {
        // The oracle reported deg(u) > slot yet returned ⊥: an inconsistent
        // backend, not a programmer error — surface it, don't abort.
        return FailedPreconditionError(
            "oracle returned no neighbor for an in-range slot");
      }
      sample.AddEdge(u, *neighbor, slot_weight);
    }
  }
  if (!IsConnected(sample)) {
    // A disconnected sample certifies the sampled min cut is 0 (far below
    // (1−ε)t): reject without running the exact min-cut solver.
    result.accepted = false;
    result.estimate = 0;
    return result;
  }
  result.estimate = StoerWagnerMinCut(sample).value;
  result.accepted = result.estimate >= (1 - epsilon) * guess_t;
  return result;
}

}  // namespace dcs
