// VERIFY-GUESS (Lemma 5.8, [BGMP21]) via Karger's uniform edge sampling.
//
// Given a guess t for the min-cut value k, sample each neighbor slot with
// probability p = min(1, c·ln(n)/(ε²·t)) and weight every sampled edge by
// 1/(expected multiplicity), so each cut's sampled weight is unbiased. By
// Karger's sampling theorem, if t ≤ k then p ≥ c·ln(n)/(ε²·k) and *all*
// cuts of the sample are within (1±ε) of their true value whp — so the
// sample's global min cut is a (1±ε) estimate of k and the guess is
// accepted. If t ≥ Ω̃(k/ε²), the sampled min cut falls far below (1−ε)·t
// and the guess is rejected. Expected queries: O(n + p·2m) = Õ(m/(ε²·t)).

#ifndef DCS_LOCALQUERY_VERIFY_GUESS_H_
#define DCS_LOCALQUERY_VERIFY_GUESS_H_

#include "localquery/oracle.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

// Outcome of one VERIFY-GUESS call.
struct VerifyGuessResult {
  bool accepted = false;
  // Estimate of the min cut from the sampled subgraph (valid when
  // accepted; when rejected it still records the sampled value).
  double estimate = 0;
  // Sampling probability that was used.
  double sample_probability = 0;
};

// Runs VERIFY-GUESS(D, t, ε) against the oracle. `oversample_c` is the
// constant c in the sampling rate. Accepts iff the sampled min-cut
// estimate is at least (1−ε)·t. Requires guess_t >= 1.
//
// Returns kFailedPrecondition if the oracle is inconsistent: it reports
// deg(u) > slot for a sampled slot, yet Neighbor(u, slot) returns ⊥.
StatusOr<VerifyGuessResult> VerifyGuess(LocalQueryOracle& oracle,
                                        double guess_t, double epsilon,
                                        Rng& rng, double oversample_c = 2.0);

}  // namespace dcs

#endif  // DCS_LOCALQUERY_VERIFY_GUESS_H_
