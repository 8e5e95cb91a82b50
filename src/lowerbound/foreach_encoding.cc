#include "lowerbound/foreach_encoding.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/incremental_cut_oracle.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

bool IsPowerOfTwo(int v) { return v > 0 && (v & (v - 1)) == 0; }

int Log2Exact(int v) {
  int log = 0;
  while ((1 << log) < v) ++log;
  DCS_CHECK_EQ(1 << log, v);
  return log;
}

// Adds all backward edges (right layer → left layer) of one layer pair.
void AddBackwardEdges(DirectedGraph& graph, int layer_size, int left_base,
                      int right_base, double weight) {
  for (int u = 0; u < layer_size; ++u) {
    for (int v = 0; v < layer_size; ++v) {
      graph.AddEdge(right_base + v, left_base + u, weight);
    }
  }
}

}  // namespace

double ForEachLowerBoundParams::forward_base_weight() const {
  return 2 * c1 * std::log(static_cast<double>(inv_epsilon));
}

double ForEachLowerBoundParams::clip_threshold() const {
  return c1 * std::log(static_cast<double>(inv_epsilon)) * inv_epsilon;
}

void ForEachLowerBoundParams::Check() const {
  DCS_CHECK_GE(inv_epsilon, 2);
  DCS_CHECK(IsPowerOfTwo(inv_epsilon));
  DCS_CHECK_GE(sqrt_beta, 1);
  DCS_CHECK_GE(num_layers, 2);
  DCS_CHECK_GT(c1, 0);
}

ForEachBitLocation LocateForEachBit(const ForEachLowerBoundParams& params,
                                    int64_t q) {
  DCS_CHECK_GE(q, 0);
  DCS_CHECK_LT(q, params.total_bits());
  const int64_t bits_per_layer_pair =
      params.cluster_pairs_per_layer() * params.bits_per_cluster_pair();
  ForEachBitLocation location;
  location.layer_pair = static_cast<int>(q / bits_per_layer_pair);
  int64_t rem = q % bits_per_layer_pair;
  const int64_t cluster_pair = rem / params.bits_per_cluster_pair();
  location.left_cluster = static_cast<int>(cluster_pair / params.sqrt_beta);
  location.right_cluster = static_cast<int>(cluster_pair % params.sqrt_beta);
  location.tensor_row = rem % params.bits_per_cluster_pair();
  return location;
}

ForEachEncoder::ForEachEncoder(const ForEachLowerBoundParams& params)
    : params_(params), tensor_(Log2Exact(params.inv_epsilon)) {
  params_.Check();
}

VertexId ForEachEncoder::VertexOf(int layer, int cluster, int offset) const {
  DCS_CHECK(layer >= 0 && layer < params_.num_layers);
  DCS_CHECK(cluster >= 0 && cluster < params_.sqrt_beta);
  DCS_CHECK(offset >= 0 && offset < params_.inv_epsilon);
  return layer * params_.layer_size() + cluster * params_.inv_epsilon +
         offset;
}

ForEachEncoder::Encoding ForEachEncoder::Encode(
    const std::vector<int8_t>& s) const {
  DCS_CHECK_EQ(static_cast<int64_t>(s.size()), params_.total_bits());
  const int inv_eps = params_.inv_epsilon;
  const double epsilon = 1.0 / inv_eps;
  const double base = params_.forward_base_weight();
  const double clip = params_.clip_threshold();
  const double backward = params_.backward_weight();
  const int k = params_.layer_size();

  Encoding encoding{DirectedGraph(params_.num_vertices()), {}, 0};
  encoding.cluster_failed.assign(
      static_cast<size_t>(params_.num_layers - 1),
      std::vector<uint8_t>(
          static_cast<size_t>(params_.cluster_pairs_per_layer()), 0));

  int64_t cursor = 0;
  for (int p = 0; p + 1 < params_.num_layers; ++p) {
    const int left_base = p * k;
    const int right_base = (p + 1) * k;
    for (int i = 0; i < params_.sqrt_beta; ++i) {
      for (int j = 0; j < params_.sqrt_beta; ++j) {
        // Extract this cluster pair's sign string.
        std::vector<int8_t> z(
            s.begin() + cursor,
            s.begin() + cursor + params_.bits_per_cluster_pair());
        cursor += params_.bits_per_cluster_pair();
        const std::vector<int64_t> x = tensor_.EncodeSigns(z);
        double max_abs = 0;
        for (int64_t value : x) {
          max_abs = std::max(max_abs, std::abs(static_cast<double>(value)));
        }
        const bool failed = max_abs > clip;
        if (failed) {
          encoding
              .cluster_failed[static_cast<size_t>(p)][static_cast<size_t>(
                  i * params_.sqrt_beta + j)] = 1;
          ++encoding.failed_clusters;
        }
        // Forward edges L_i → R_j with the encoded (or all-base) weights.
        for (int u = 0; u < inv_eps; ++u) {
          for (int v = 0; v < inv_eps; ++v) {
            const double weight =
                failed ? base
                       : epsilon * static_cast<double>(
                                       x[static_cast<size_t>(u) *
                                             static_cast<size_t>(inv_eps) +
                                         static_cast<size_t>(v)]) +
                             base;
            encoding.graph.AddEdge(left_base + i * inv_eps + u,
                                   right_base + j * inv_eps + v, weight);
          }
        }
      }
    }
    AddBackwardEdges(encoding.graph, k, left_base, right_base, backward);
  }
  DCS_CHECK_EQ(cursor, params_.total_bits());
  DCS_METRIC_INC("foreach.graph.encoded");
  DCS_METRIC_ADD("foreach.cluster.encoded",
                 static_cast<int64_t>(params_.num_layers - 1) *
                     params_.cluster_pairs_per_layer());
  DCS_METRIC_ADD("foreach.cluster.failed", encoding.failed_clusters);
  return encoding;
}

ForEachDecoder::ForEachDecoder(const ForEachLowerBoundParams& params)
    : params_(params),
      tensor_(Log2Exact(params.inv_epsilon)),
      backward_skeleton_(params.num_vertices()) {
  params_.Check();
  const int k = params_.layer_size();
  for (int p = 0; p + 1 < params_.num_layers; ++p) {
    AddBackwardEdges(backward_skeleton_, k, p * k, (p + 1) * k,
                     params_.backward_weight());
  }
  // Trial runners share one decoder across threads; force the lazy
  // adjacency build now so later const access is read-only.
  backward_skeleton_.BuildAdjacency();
}

std::array<VertexSet, 4> ForEachDecoder::BuildQuerySides(
    const ForEachBitLocation& loc) const {
  const int inv_eps = params_.inv_epsilon;
  const int k = params_.layer_size();
  const int n = params_.num_vertices();
  std::vector<int8_t> h_a(static_cast<size_t>(inv_eps));
  std::vector<int8_t> h_b(static_cast<size_t>(inv_eps));
  tensor_.LeftFactorInto(loc.tensor_row, h_a);
  tensor_.RightFactorInto(loc.tensor_row, h_b);

  std::array<VertexSet, 4> sides;
  // Query index: 0 → (A,B), 1 → (Ā,B), 2 → (A,B̄), 3 → (Ā,B̄).
  for (int query = 0; query < 4; ++query) {
    const bool use_complement_a = (query == 1 || query == 3);
    const bool use_complement_b = (query == 2 || query == 3);
    VertexSet side(static_cast<size_t>(n), 0);
    // A' ⊂ L_i: offsets where h_a matches the wanted sign.
    const int left_base = loc.layer_pair * k + loc.left_cluster * inv_eps;
    for (int u = 0; u < inv_eps; ++u) {
      const bool in_a = h_a[static_cast<size_t>(u)] > 0;
      if (in_a != use_complement_a) {
        side[static_cast<size_t>(left_base + u)] = 1;
      }
    }
    // V_{p+1} ∖ B'.
    const int right_layer_base = (loc.layer_pair + 1) * k;
    const int right_cluster_base =
        right_layer_base + loc.right_cluster * inv_eps;
    for (int v = 0; v < k; ++v) {
      side[static_cast<size_t>(right_layer_base + v)] = 1;
    }
    for (int v = 0; v < inv_eps; ++v) {
      const bool in_b = h_b[static_cast<size_t>(v)] > 0;
      if (in_b != use_complement_b) {
        side[static_cast<size_t>(right_cluster_base + v)] = 0;
      }
    }
    // All later layers V_{p+2}..V_ℓ.
    for (int v = (loc.layer_pair + 2) * k; v < n; ++v) {
      side[static_cast<size_t>(v)] = 1;
    }
    sides[static_cast<size_t>(query)] = std::move(side);
  }
  return sides;
}

ForEachDecoder::QueryPlan ForEachDecoder::PlanQueries(int64_t q) const {
  const ForEachBitLocation loc = LocateForEachBit(params_, q);
  QueryPlan plan;
  plan.signs = {+1, -1, -1, +1};
  plan.cut_sides = BuildQuerySides(loc);
  for (int query = 0; query < 4; ++query) {
    plan.fixed_weights[static_cast<size_t>(query)] =
        backward_skeleton_.CutWeight(
            plan.cut_sides[static_cast<size_t>(query)]);
  }
  return plan;
}

double ForEachDecoder::EstimateInnerProduct(int64_t q,
                                            const CutOracle& oracle) const {
  const ForEachBitLocation loc = LocateForEachBit(params_, q);
  const std::array<VertexSet, 4> sides = BuildQuerySides(loc);
  // Consecutive query sides differ only inside clusters L_i and R_j
  // (2·(1/ε) vertices), so one oracle session plus an incremental skeleton
  // oracle answer all four queries with O(1/ε) flips between them instead
  // of four O(m) rescans. Query order and per-query noise draws match the
  // one-shot path exactly.
  const int k = params_.layer_size();
  const int inv_eps = params_.inv_epsilon;
  const int left_base = loc.layer_pair * k + loc.left_cluster * inv_eps;
  const int right_base =
      (loc.layer_pair + 1) * k + loc.right_cluster * inv_eps;
  const auto session = oracle.BeginSession(sides[0]);
  IncrementalCutOracle fixed(backward_skeleton_, sides[0]);
  static constexpr std::array<int, 4> kSigns = {+1, -1, -1, +1};
  double estimate = 0;
  for (int query = 0; query < 4; ++query) {
    if (query > 0) {
      const VertexSet& prev = sides[static_cast<size_t>(query - 1)];
      const VertexSet& next = sides[static_cast<size_t>(query)];
      for (const int base : {left_base, right_base}) {
        for (int off = 0; off < inv_eps; ++off) {
          const size_t v = static_cast<size_t>(base + off);
          if (prev[v] != next[v]) {
            session->Flip(base + off);
            fixed.Flip(base + off);
          }
        }
      }
    }
    estimate += kSigns[static_cast<size_t>(query)] *
                (session->Query() - fixed.value());
  }
  return estimate;
}

int8_t ForEachDecoder::DecodeBit(int64_t q, const CutOracle& oracle) const {
  DCS_METRIC_INC("foreach.bit.decoded");
  return EstimateInnerProduct(q, oracle) >= 0 ? 1 : -1;
}

ForEachTrialResult RunForEachTrial(
    const ForEachLowerBoundParams& params, int probe_count, Rng& rng,
    const std::function<CutOracle(const DirectedGraph&)>& oracle_factory) {
  params.Check();
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const ForEachEncoder encoder(params);
  const ForEachEncoder::Encoding encoding = encoder.Encode(s);
  const ForEachDecoder decoder(params);
  const CutOracle oracle = oracle_factory(encoding.graph);
  ForEachTrialResult result;
  for (int probe = 0; probe < probe_count; ++probe) {
    const int64_t q = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(params.total_bits())));
    const int8_t decoded = decoder.DecodeBit(q, oracle);
    ++result.probes;
    if (decoded == s[static_cast<size_t>(q)]) ++result.correct;
  }
  return result;
}

ForEachTrialResult RunForEachTrials(const ForEachLowerBoundParams& params,
                                    int num_trials, int probe_count,
                                    uint64_t base_seed,
                                    const SeededCutOracleFactory& oracle_factory,
                                    int num_threads) {
  params.Check();
  DCS_CHECK_GE(num_trials, 0);
  std::vector<ForEachTrialResult> slots(static_cast<size_t>(num_trials));
  ParallelFor(num_threads, num_trials, [&](int64_t trial) {
    Rng rng(SubtaskSeed(base_seed, trial));
    slots[static_cast<size_t>(trial)] = RunForEachTrial(
        params, probe_count, rng,
        [&oracle_factory, &rng](const DirectedGraph& graph) {
          return oracle_factory(graph, rng);
        });
  });
  ForEachTrialResult result;
  for (const ForEachTrialResult& slot : slots) {
    result.probes += slot.probes;
    result.correct += slot.correct;
  }
  return result;
}

}  // namespace dcs
