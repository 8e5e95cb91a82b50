// Differential accuracy harness (the bake-off's test half).
//
// Sweeps zoo family × β × ε × backend and holds every registered backend
// to the relative-error bound it advertises, against exact src/mincut
// answers. Also asserts the structural claims the bench reports: planted
// zoo cuts agree with exact solvers, and the cut-balance sparsifier's
// quantized-imbalance storage grows with log β — the dependence the
// paper's Ω(n·log β/ε²) lower bound says no correct sketch can avoid.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "graph/balance.h"
#include "graph/zoo.h"
#include "gtest/gtest.h"
#include "mincut/directed_mincut.h"
#include "serve/cut_query_service.h"
#include "sketch/backend_registry.h"
#include "sketch/cut_balance_sparsifier.h"
#include "util/random.h"

namespace dcs {
namespace {

constexpr int kZooN = 32;

// Probe sides: every singleton, a spread of random sides, and the planted
// side when the family has one. All proper cuts.
std::vector<VertexSet> ProbeSides(const ZooInstance& instance, int random_probes,
                                  uint64_t seed) {
  const int n = instance.graph.num_vertices();
  std::vector<VertexSet> sides;
  for (int v = 0; v < n; ++v) {
    VertexSet side(static_cast<size_t>(n), 0);
    side[static_cast<size_t>(v)] = 1;
    sides.push_back(std::move(side));
  }
  Rng rng(seed);
  for (int probe = 0; probe < random_probes; ++probe) {
    VertexSet side(static_cast<size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      side[static_cast<size_t>(v)] = rng.Bernoulli(0.5) ? 1 : 0;
    }
    if (!IsProperCutSide(side)) side[0] ^= 1;
    sides.push_back(std::move(side));
  }
  if (instance.planted_side.has_value()) {
    sides.push_back(*instance.planted_side);
  }
  return sides;
}

TEST(ZooGroundTruth, PlantedCutsMatchExactSolver) {
  for (const ZooFamily family :
       {ZooFamily::kPlantedCut, ZooFamily::kDumbbell}) {
    for (const double beta : {1.0, 4.0, 16.0}) {
      ZooOptions options;
      options.n = kZooN;
      options.beta = beta;
      options.seed = 7;
      const ZooInstance instance = MakeZooInstance(family, options);
      ASSERT_TRUE(instance.planted_min_cut.has_value());
      ASSERT_TRUE(instance.planted_side.has_value());
      EXPECT_NEAR(instance.graph.CutWeight(*instance.planted_side),
                  *instance.planted_min_cut, 1e-9)
          << ZooFamilyName(family) << " beta=" << beta;
      const GlobalMinCut exact = DirectedGlobalMinCut(instance.graph);
      EXPECT_NEAR(exact.value, *instance.planted_min_cut, 1e-6)
          << ZooFamilyName(family) << " beta=" << beta;
    }
  }
}

TEST(ZooGroundTruth, CertificateMatchesRequestedBeta) {
  for (const ZooFamily family : AllZooFamilies()) {
    for (const double beta : {1.0, 4.0, 16.0}) {
      ZooOptions options;
      options.n = kZooN;
      options.beta = beta;
      options.seed = 11;
      const ZooInstance instance = MakeZooInstance(family, options);
      EXPECT_DOUBLE_EQ(instance.beta_certificate, beta);
      const auto certificate = PerEdgeBalanceCertificate(instance.graph);
      ASSERT_TRUE(certificate.has_value()) << ZooFamilyName(family);
      EXPECT_NEAR(*certificate, beta, 1e-9)
          << ZooFamilyName(family) << " beta=" << beta;
    }
  }
}

// The centerpiece: family × β × ε × backend, every estimate within the
// backend's advertised bound of the exact answer. For-each backends are
// median-boosted (their contract is per-cut success probability, not
// simultaneity; the boost is the paper's own footnote-2 remedy).
TEST(SparsifierDifferential, EveryBackendWithinAdvertisedError) {
  for (const ZooFamily family : AllZooFamilies()) {
    for (const double beta : {1.0, 4.0, 16.0}) {
      for (const double epsilon : {0.15, 0.3}) {
        ZooOptions zoo_options;
        zoo_options.n = kZooN;
        zoo_options.beta = beta;
        zoo_options.seed = 13;
        const ZooInstance instance = MakeZooInstance(family, zoo_options);
        const std::vector<VertexSet> sides = ProbeSides(instance, 16, 17);
        for (const BackendInfo& backend : RegisteredBackends()) {
          BackendOptions options;
          options.epsilon = epsilon;
          options.beta = beta;
          options.seed = 19;
          options.median_boost = 5;
          auto sketch =
              BuildBackendSketch(backend.name, instance.graph, options);
          ASSERT_TRUE(sketch.ok()) << sketch.status().message();
          const double bound = BackendAdvertisedError(backend.name, options);
          for (const VertexSet& side : sides) {
            const double exact = instance.graph.CutWeight(side);
            ASSERT_GT(exact, 0) << "zoo instances are strongly connected";
            const double estimate = (*sketch)->EstimateCut(side);
            EXPECT_LE(std::abs(estimate - exact), bound * exact + 1e-9)
                << backend.name << " on " << ZooFamilyName(family)
                << " beta=" << beta << " eps=" << epsilon;
          }
        }
      }
    }
  }
}

// The log β dependence: with family, n, ε, and seed pinned, the bits the
// cut-balance sketch spends on quantized imbalances must grow as β doubles
// (each doubling adds ~2 bits per skewed vertex) and must dominate
// n·log₂(β)/2 — the shape of the paper's Ω(n·log β) term.
TEST(SparsifierDifferential, CutBalanceImbalanceBitsTrackLogBeta) {
  const int n = 48;
  const double epsilon = 0.25;
  std::vector<double> betas = {2.0, 4.0, 8.0, 16.0, 32.0};
  std::vector<int64_t> imbalance_bits;
  for (const double beta : betas) {
    ZooOptions options;
    options.n = n;
    options.beta = beta;
    options.seed = 23;
    const ZooInstance instance =
        MakeZooInstance(ZooFamily::kExpander, options);
    Rng rng(29);
    const CutBalanceSparsifier sketch(instance.graph, epsilon, beta, rng);
    imbalance_bits.push_back(sketch.imbalance_bits());
  }
  for (size_t i = 0; i + 1 < imbalance_bits.size(); ++i) {
    EXPECT_GE(imbalance_bits[i + 1] - imbalance_bits[i], n / 2)
        << "beta " << betas[i] << " -> " << betas[i + 1];
  }
  for (size_t i = 0; i < betas.size(); ++i) {
    EXPECT_GE(static_cast<double>(imbalance_bits[i]),
              0.5 * n * std::log2(betas[i]))
        << "beta " << betas[i];
  }
}

TEST(SparsifierDifferential, CutBalanceRoundTripPreservesEstimates) {
  ZooOptions options;
  options.n = kZooN;
  options.beta = 8.0;
  options.seed = 31;
  const ZooInstance instance =
      MakeZooInstance(ZooFamily::kPlantedCut, options);
  Rng rng(37);
  const CutBalanceSparsifier sketch(instance.graph, 0.2, 8.0, rng);
  BitWriter writer;
  sketch.Serialize(writer);
  EXPECT_EQ(writer.bit_count(), sketch.SizeInBits());
  BitReader reader(writer.bytes());
  const auto round_tripped = CutBalanceSparsifier::Deserialize(reader);
  ASSERT_TRUE(round_tripped.ok()) << round_tripped.status().message();
  const std::vector<VertexSet> sides = ProbeSides(instance, 8, 41);
  for (const VertexSet& side : sides) {
    EXPECT_DOUBLE_EQ(round_tripped->EstimateCut(side),
                     sketch.EstimateCut(side));
  }
}

TEST(SparsifierDifferential, RegistryRejectsUnknownBackend) {
  const DirectedGraph graph(4);
  const auto result = BuildBackendSketch("cut_blanace", graph, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The error must teach the caller the valid names.
  for (const BackendInfo& backend : RegisteredBackends()) {
    EXPECT_NE(result.status().message().find(backend.name),
              std::string::npos);
  }
}

TEST(SparsifierDifferential, RegistryRejectsBadOptions) {
  ZooOptions zoo_options;
  zoo_options.n = 8;
  const ZooInstance instance =
      MakeZooInstance(ZooFamily::kExpander, zoo_options);
  BackendOptions bad_epsilon;
  bad_epsilon.epsilon = 1.5;
  EXPECT_FALSE(
      BuildBackendSketch("cut_balance", instance.graph, bad_epsilon).ok());
  BackendOptions bad_beta;
  bad_beta.beta = 0.5;
  EXPECT_FALSE(
      BuildBackendSketch("forall", instance.graph, bad_beta).ok());
}

// Serve routing: any backend registers by name and answers batches.
TEST(SparsifierDifferential, ServiceRoutesBackendsByName) {
  ZooOptions zoo_options;
  zoo_options.n = kZooN;
  zoo_options.beta = 4.0;
  zoo_options.seed = 43;
  const ZooInstance instance =
      MakeZooInstance(ZooFamily::kDumbbell, zoo_options);
  CutQueryService service;
  std::vector<CutQueryService::ObjectId> objects;
  for (const BackendInfo& backend : RegisteredBackends()) {
    BackendOptions options;
    options.epsilon = 0.2;
    options.beta = 4.0;
    options.seed = 47;
    options.median_boost = 5;
    const auto object =
        service.RegisterBackendSketch(instance.graph, backend.name, options);
    ASSERT_TRUE(object.ok()) << backend.name;
    objects.push_back(*object);
  }
  EXPECT_FALSE(
      service.RegisterBackendSketch(instance.graph, "nope", {}).ok());
  std::vector<CutQueryService::Query> batch;
  for (const auto object : objects) {
    batch.push_back({object, *instance.planted_side});
  }
  const std::vector<double> answers = service.AnswerBatch(batch);
  const double exact = instance.graph.CutWeight(*instance.planted_side);
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_NEAR(answers[i], exact, exact * 1.0 + 1e-9)
        << RegisteredBackends()[i].name;
  }
}

}  // namespace
}  // namespace dcs
