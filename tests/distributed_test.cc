// The distributed min-cut pipeline: partitioning, sketch-based candidate
// enumeration + accurate re-evaluation, and communication accounting.

#include "distributed/distributed_mincut.h"

#include <cmath>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "mincut/stoer_wagner.h"
#include "util/random.h"

namespace dcs {
namespace {

TEST(PartitionEdgesTest, PreservesEveryEdgeExactlyOnce) {
  Rng gen_rng(1);
  const UndirectedGraph g =
      RandomUndirectedGraph(20, 0.4, 1.0, 2.0, true, gen_rng);
  Rng rng(2);
  const std::vector<UndirectedGraph> parts = PartitionEdges(g, 4, rng);
  ASSERT_EQ(parts.size(), 4u);
  int64_t total_edges = 0;
  double total_weight = 0;
  for (const UndirectedGraph& part : parts) {
    EXPECT_EQ(part.num_vertices(), 20);
    total_edges += part.num_edges();
    total_weight += part.TotalWeight();
  }
  EXPECT_EQ(total_edges, g.num_edges());
  EXPECT_NEAR(total_weight, g.TotalWeight(), 1e-9);
}

TEST(PartitionEdgesTest, CutValuesAddAcrossServers) {
  Rng gen_rng(3);
  const UndirectedGraph g =
      RandomUndirectedGraph(16, 0.5, 1.0, 1.0, true, gen_rng);
  Rng rng(4);
  const std::vector<UndirectedGraph> parts = PartitionEdges(g, 3, rng);
  const VertexSet side = MakeVertexSet(16, {0, 2, 4, 6, 8});
  double sum = 0;
  for (const UndirectedGraph& part : parts) sum += part.CutWeight(side);
  EXPECT_NEAR(sum, g.CutWeight(side), 1e-9);
}

TEST(DistributedMinCutTest, RecoversDumbbellMinCut) {
  const UndirectedGraph g = DumbbellGraph(14, 4);
  Rng rng(5);
  DistributedMinCutOptions options;
  options.epsilon = 0.15;
  const std::vector<UndirectedGraph> parts = PartitionEdges(g, 4, rng);
  const DistributedMinCutPipeline pipeline(parts, options, rng);
  const auto result = pipeline.Run(rng);
  EXPECT_NEAR(result.estimate, 4.0, 1.5);
  EXPECT_GT(result.candidates_considered, 0);
  // The reported best side should really be a near-minimum cut of G.
  EXPECT_LE(g.CutWeight(result.best_side), 4.0 * 1.6);
}

TEST(DistributedMinCutTest, AccurateOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng gen_rng(seed);
    const UndirectedGraph g =
        RandomUndirectedGraph(28, 0.35, 1.0, 1.0, true, gen_rng);
    const double exact = StoerWagnerMinCut(g).value;
    Rng rng(seed + 10);
    DistributedMinCutOptions options;
    options.epsilon = 0.2;
    const DistributedMinCutPipeline pipeline(PartitionEdges(g, 3, rng),
                                             options, rng);
    const auto result = pipeline.Run(rng);
    EXPECT_NEAR(result.estimate, exact, 0.5 * exact + 0.5) << "seed=" << seed;
  }
}

TEST(DistributedMinCutTest, ForEachCommunicationBeatsShippingEdges) {
  // At n = 64 the for-all sparsifier's ln(n)/ε² rate saturates (it keeps
  // everything — the asymptotic win needs larger n and is measured in
  // bench_distributed_mincut); the for-each sketches, with their 1/ε rate,
  // already compress a dense graph at this size.
  const UndirectedGraph g = CompleteGraph(64, 1.0);
  Rng rng(6);
  DistributedMinCutOptions options;
  options.epsilon = 0.5;
  options.median_boost = 1;
  const DistributedMinCutPipeline pipeline(PartitionEdges(g, 4, rng),
                                           options, rng);
  const auto result = pipeline.Run(rng);
  EXPECT_LT(result.foreach_bits, pipeline.NaiveShipAllBits());
  EXPECT_GT(result.forall_bits, 0);
  EXPECT_GT(result.foreach_bits, 0);
}

TEST(DistributedMinCutTest, SingleServerDegeneratesGracefully) {
  const UndirectedGraph g = DumbbellGraph(10, 2);
  Rng rng(7);
  DistributedMinCutOptions options;
  const DistributedMinCutPipeline pipeline(PartitionEdges(g, 1, rng),
                                           options, rng);
  const auto result = pipeline.Run(rng);
  EXPECT_NEAR(result.estimate, 2.0, 1.0);
}

TEST(DistributedChaosTest, SameChaosSeedIsDeterministic) {
  const UndirectedGraph g = DumbbellGraph(10, 3);
  Rng part_rng(30);
  DistributedMinCutOptions options;
  options.median_boost = 2;
  Rng build_rng(31);
  const DistributedMinCutPipeline pipeline(PartitionEdges(g, 3, part_rng),
                                           options, build_rng);
  ChannelOptions channel;
  channel.seed = 6;
  channel.drop_rate = 0.25;
  channel.flip_rate = 0.05;
  channel.max_rounds = 32;
  Rng r1(32), r2(32);
  const auto a = pipeline.Run(r1, channel).value();
  const auto b = pipeline.Run(r2, channel).value();
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.channel_wire_bits, b.channel_wire_bits);
  EXPECT_EQ(a.retransmitted_bits, b.retransmitted_bits);
  EXPECT_EQ(a.lost_servers, b.lost_servers);
}

TEST(DistributedChaosTest, DegradedRunWidensEffectiveEpsilon) {
  const UndirectedGraph g = DumbbellGraph(12, 3);
  Rng part_rng(33);
  DistributedMinCutOptions options;
  options.median_boost = 2;
  Rng build_rng(34);
  const int num_servers = 4;
  const DistributedMinCutPipeline pipeline(
      PartitionEdges(g, num_servers, part_rng), options, build_rng);
  for (uint64_t chaos_seed = 1; chaos_seed <= 64; ++chaos_seed) {
    ChannelOptions channel;
    channel.seed = chaos_seed;
    channel.drop_rate = 0.18;
    channel.max_rounds = 2;
    Rng rng(35);
    const auto run = pipeline.Run(rng, channel);
    if (!run.ok() || run->lost_servers.empty()) continue;
    const auto& result = run.value();
    const int survivors =
        num_servers - static_cast<int>(result.lost_servers.size());
    ASSERT_GT(survivors, 0);
    // The widened bound is ε·√(S/(S−L)) — the error of the smaller
    // surviving sample.
    EXPECT_DOUBLE_EQ(
        result.effective_epsilon,
        options.epsilon *
            std::sqrt(static_cast<double>(num_servers) / survivors));
    EXPECT_TRUE(result.degraded);
    return;
  }
  FAIL() << "no chaos seed in [1, 64] produced a partial loss";
}

}  // namespace
}  // namespace dcs
