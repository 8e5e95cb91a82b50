#include "lowerbound/forall_encoding.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "graph/incremental_cut_oracle.h"
#include "util/combinations.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace dcs {

void ForAllLowerBoundParams::Check() const {
  DCS_CHECK_GE(inv_epsilon_sq, 2);
  DCS_CHECK_EQ(inv_epsilon_sq % 2, 0);
  DCS_CHECK_GE(beta, 1);
  DCS_CHECK_GE(num_layers, 2);
  DCS_CHECK_EQ(layer_size() % 2, 0);
  DCS_CHECK_GT(gap_c, 0);
}

ForAllStringLocation LocateForAllString(const ForAllLowerBoundParams& params,
                                        int64_t string_index) {
  DCS_CHECK_GE(string_index, 0);
  DCS_CHECK_LT(string_index, params.total_strings());
  ForAllStringLocation loc;
  loc.layer_pair =
      static_cast<int>(string_index / params.strings_per_layer_pair());
  const int64_t rem = string_index % params.strings_per_layer_pair();
  loc.left_index = static_cast<int>(rem / params.beta);
  loc.right_cluster = static_cast<int>(rem % params.beta);
  return loc;
}

ForAllEncoder::ForAllEncoder(const ForAllLowerBoundParams& params)
    : params_(params) {
  params_.Check();
}

DirectedGraph ForAllEncoder::Encode(
    const std::vector<std::vector<uint8_t>>& strings) const {
  DCS_CHECK_EQ(static_cast<int64_t>(strings.size()),
               params_.total_strings());
  const int k = params_.layer_size();
  const int cluster = params_.inv_epsilon_sq;
  const double backward = params_.backward_weight();
  DirectedGraph graph(params_.num_vertices());
  int64_t string_cursor = 0;
  for (int p = 0; p + 1 < params_.num_layers; ++p) {
    const int left_base = p * k;
    const int right_base = (p + 1) * k;
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < params_.beta; ++j) {
        const std::vector<uint8_t>& s =
            strings[static_cast<size_t>(string_cursor++)];
        DCS_CHECK_EQ(static_cast<int>(s.size()), cluster);
        for (int v = 0; v < cluster; ++v) {
          const double weight = (s[static_cast<size_t>(v)] ? 2.0 : 1.0);
          graph.AddEdge(left_base + i, right_base + j * cluster + v, weight);
        }
      }
    }
    // Backward edges: every right vertex → every left vertex.
    for (int v = 0; v < k; ++v) {
      for (int u = 0; u < k; ++u) {
        graph.AddEdge(right_base + v, left_base + u, backward);
      }
    }
  }
  DCS_CHECK_EQ(string_cursor, params_.total_strings());
  return graph;
}

namespace {

// The publicly known part of every encoding: its backward edges, each
// right vertex of a layer pair to each left vertex, at the fixed weight.
DirectedGraph BackwardSkeleton(const ForAllLowerBoundParams& params) {
  params.Check();
  DirectedGraph skeleton(params.num_vertices());
  const int k = params.layer_size();
  for (int p = 0; p + 1 < params.num_layers; ++p) {
    const int left_base = p * k;
    const int right_base = (p + 1) * k;
    for (int v = 0; v < k; ++v) {
      for (int u = 0; u < k; ++u) {
        skeleton.AddEdge(right_base + v, left_base + u,
                         params.backward_weight());
      }
    }
  }
  return skeleton;
}

}  // namespace

ForAllDecoder::ForAllDecoder(const ForAllLowerBoundParams& params)
    : params_(params),
      backward_skeleton_(BackwardSkeleton(params)),
      backward_index_(backward_skeleton_) {}

VertexSet ForAllDecoder::BuildQuerySide(const ForAllStringLocation& loc,
                                        const std::vector<uint8_t>& t,
                                        const VertexSet& u_subset) const {
  const int k = params_.layer_size();
  const int n = params_.num_vertices();
  const int cluster = params_.inv_epsilon_sq;
  DCS_CHECK_EQ(static_cast<int>(t.size()), cluster);
  DCS_CHECK_EQ(static_cast<int>(u_subset.size()), k);
  VertexSet side(static_cast<size_t>(n), 0);
  const int left_base = loc.layer_pair * k;
  for (int i = 0; i < k; ++i) {
    if (u_subset[static_cast<size_t>(i)]) {
      side[static_cast<size_t>(left_base + i)] = 1;
    }
  }
  // V_{p+1} ∖ T.
  const int right_base = (loc.layer_pair + 1) * k;
  for (int v = 0; v < k; ++v) {
    side[static_cast<size_t>(right_base + v)] = 1;
  }
  const int cluster_base = right_base + loc.right_cluster * cluster;
  for (int v = 0; v < cluster; ++v) {
    if (t[static_cast<size_t>(v)]) {
      side[static_cast<size_t>(cluster_base + v)] = 0;
    }
  }
  // Later layers.
  for (int v = (loc.layer_pair + 2) * k; v < n; ++v) {
    side[static_cast<size_t>(v)] = 1;
  }
  return side;
}

VertexSet ForAllDecoder::SelectBestSubset(int64_t string_index,
                                          const std::vector<uint8_t>& t,
                                          const CutOracle& oracle,
                                          SubsetSelection mode) const {
  const ForAllStringLocation loc = LocateForAllString(params_, string_index);
  const int k = params_.layer_size();
  const int half = k / 2;
  const int left_base = loc.layer_pair * k;
  if (mode == SubsetSelection::kEnumerate) {
    // All C(k, k/2) half-size subsets in revolving-door (Gray-code) order:
    // consecutive subsets differ by one swap, so after the initial query
    // every candidate costs two O(deg) flips plus one session query instead
    // of an O(m) rescan. The fixed backward weight is maintained by its own
    // incremental oracle over the public skeleton.
    VertexSet u_subset(static_cast<size_t>(k), 0);
    for (int i = 0; i < half; ++i) u_subset[static_cast<size_t>(i)] = 1;
    const auto session =
        oracle.BeginSession(BuildQuerySide(loc, t, u_subset));
    IncrementalCutOracle fixed(backward_skeleton_, backward_index_,
                               BuildQuerySide(loc, t, u_subset));
    VertexSet best = u_subset;
    double best_value = session->Query() - fixed.value();
    int64_t candidates = 1;  // flushed below; hot loop stays registry-free
    const bool completed = VisitRevolvingDoorSwapsUntil(
        k, half, [&](int out, int in) {
          // Cooperative deadline: past the budget, checkpoint best-so-far
          // and unwind instead of finishing the exponential sweep.
          if (enumeration_budget_ > 0 && candidates >= enumeration_budget_) {
            return false;
          }
          ++candidates;
          u_subset[static_cast<size_t>(out)] = 0;
          u_subset[static_cast<size_t>(in)] = 1;
          session->Flip(left_base + out);
          session->Flip(left_base + in);
          fixed.Flip(left_base + out);
          fixed.Flip(left_base + in);
          const double value = session->Query() - fixed.value();
          if (value > best_value) {
            best_value = value;
            best = u_subset;
          }
          return true;
        });
    DCS_METRIC_ADD("forall.subset.enumerated", candidates);
    if (!completed) DCS_METRIC_INC("forall.enumeration.deadline_hit");
    return best;
  }
  // Greedy: per-node marginals from k+1 queries (base plus one per node,
  // each two flips away from the base side). For modular estimators (all
  // sketches in this library) the top-half by marginal is exactly the
  // enumeration argmax.
  const VertexSet empty(static_cast<size_t>(k), 0);
  const auto session = oracle.BeginSession(BuildQuerySide(loc, t, empty));
  IncrementalCutOracle fixed(backward_skeleton_, backward_index_,
                             BuildQuerySide(loc, t, empty));
  const double base_value = session->Query() - fixed.value();
  std::vector<std::pair<double, int>> marginals;
  marginals.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    session->Flip(left_base + i);
    fixed.Flip(left_base + i);
    const double value = session->Query() - fixed.value();
    session->Flip(left_base + i);
    fixed.Flip(left_base + i);
    marginals.emplace_back(value - base_value, i);
  }
  DCS_METRIC_ADD("forall.marginal.queried", k);
  std::sort(marginals.begin(), marginals.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  VertexSet best(static_cast<size_t>(k), 0);
  for (int rank = 0; rank < half; ++rank) {
    best[static_cast<size_t>(marginals[static_cast<size_t>(rank)].second)] =
        1;
  }
  return best;
}

bool ForAllDecoder::DecideFar(int64_t string_index,
                              const std::vector<uint8_t>& t,
                              const CutOracle& oracle,
                              SubsetSelection mode) const {
  DCS_METRIC_INC("forall.string.decoded");
  const ForAllStringLocation loc = LocateForAllString(params_, string_index);
  const VertexSet q_subset =
      SelectBestSubset(string_index, t, oracle, mode);
  // ℓ_i ∈ Q ⇒ |N(ℓ_i) ∩ T| is in the high tail ⇒ Δ(s_q, t) small ("close").
  return q_subset[static_cast<size_t>(loc.left_index)] == 0;
}

ForAllTrialResult RunForAllTrials(
    const ForAllLowerBoundParams& params, int num_trials, Rng& rng,
    const std::function<CutOracle(const DirectedGraph&)>& oracle_factory,
    ForAllDecoder::SubsetSelection mode) {
  params.Check();
  const ForAllEncoder encoder(params);
  const ForAllDecoder decoder(params);
  GapHammingParams gh_params;
  gh_params.num_strings = static_cast<int>(params.total_strings());
  gh_params.string_length = params.inv_epsilon_sq;
  gh_params.gap_c = params.gap_c;
  ForAllTrialResult result;
  for (int trial = 0; trial < num_trials; ++trial) {
    const GapHammingInstance instance =
        SampleGapHammingInstance(gh_params, rng);
    const DirectedGraph graph = encoder.Encode(instance.s);
    const CutOracle oracle = oracle_factory(graph);
    const bool decided_far =
        decoder.DecideFar(instance.index, instance.t, oracle, mode);
    ++result.trials;
    if (decided_far == instance.is_far) ++result.correct;
  }
  return result;
}

ForAllTrialResult RunForAllTrials(const ForAllLowerBoundParams& params,
                                  int num_trials, uint64_t base_seed,
                                  const SeededCutOracleFactory& oracle_factory,
                                  ForAllDecoder::SubsetSelection mode,
                                  int num_threads) {
  params.Check();
  DCS_CHECK_GE(num_trials, 0);
  const ForAllEncoder encoder(params);
  const ForAllDecoder decoder(params);
  GapHammingParams gh_params;
  gh_params.num_strings = static_cast<int>(params.total_strings());
  gh_params.string_length = params.inv_epsilon_sq;
  gh_params.gap_c = params.gap_c;
  // Trial i draws everything (instance and oracle noise) from its own
  // Rng(SubtaskSeed(base_seed, i)), so the outcome of each trial — and
  // therefore the aggregate — is bit-identical for every num_threads.
  std::vector<uint8_t> trial_correct(static_cast<size_t>(num_trials), 0);
  ParallelFor(num_threads, num_trials, [&](int64_t trial) {
    Rng rng(SubtaskSeed(base_seed, trial));
    const GapHammingInstance instance =
        SampleGapHammingInstance(gh_params, rng);
    const DirectedGraph graph = encoder.Encode(instance.s);
    const CutOracle oracle = oracle_factory(graph, rng);
    const bool decided_far =
        decoder.DecideFar(instance.index, instance.t, oracle, mode);
    trial_correct[static_cast<size_t>(trial)] =
        decided_far == instance.is_far ? 1 : 0;
  });
  ForAllTrialResult result;
  result.trials = num_trials;
  for (const uint8_t correct : trial_correct) result.correct += correct;
  return result;
}

}  // namespace dcs
