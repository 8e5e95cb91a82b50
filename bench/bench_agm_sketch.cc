// Experiment AGM — the [AGM12] linear-sketching substrate the paper's
// introduction highlights for the database community.
//
// Claims reproduced: connectivity (and a spanning forest) of a graph under
// edge insertions *and deletions* from O(n·polylog n) linear measurements;
// sketches of edge-disjoint parts merge by addition (the distributed
// pattern of Section 1).
//
// Tables produced:
//   A: sketch size vs n (polylog per vertex) with forest-extraction
//      success rate on random graphs.
//   B: fully dynamic workload — insert a cycle, delete chords, verify
//      connectivity tracking through deletions.
//   C: distributed merge — components from merged per-server sketches vs
//      ground truth, with total sketch bits vs shipping the edges.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "sketch/serialization.h"
#include "stream/agm_sketch.h"
#include "json_writer.h"
#include "table.h"
#include "util/random.h"

namespace dcs {

using bench::E;
using bench::F;
using bench::I;
using bench::PrintBanner;
using bench::PrintRow;
using bench::PrintRule;

void TableA() {
  PrintBanner("AGM/A",
              "Sketch size vs n and spanning-forest success on G(n, p)");
  PrintRow({"n", "m", "sketch bits", "bits/(n lg^2 n)", "comp exact",
            "comp sketch", "match/10"});
  PrintRule(7);
  for (int n : {32, 64, 128, 256}) {
    Rng rng(static_cast<uint64_t>(n));
    const UndirectedGraph g =
        RandomUndirectedGraph(n, 3.0 / n, 1.0, 1.0, false, rng);
    int matches = 0;
    int components_sketch = -1;
    const int components_exact = CountComponents(g);
    int64_t bits = 0;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      const AgmConnectivitySketch sketch = SketchGraph(g, 0, seed * 31 + 1);
      bits = sketch.SizeInBits();
      components_sketch = sketch.CountComponents();
      if (components_sketch == components_exact) ++matches;
    }
    const double lg = std::log2(static_cast<double>(n));
    PrintRow({I(n), I(g.num_edges()), I(bits), F(bits / (n * lg * lg), 1),
              I(components_exact), I(components_sketch),
              I(matches)});
  }
  std::printf(
      "(AGM12: O(n polylog n) measurements recover a spanning forest whp;\n"
      " the bits/(n lg^2 n) column stays bounded)\n");
}

void TableB() {
  PrintBanner("AGM/B", "Fully dynamic connectivity (insertions + deletions)");
  const int n = 64;
  AgmConnectivitySketch sketch(n, 0, 99);
  // Insert a cycle plus 32 random chords.
  Rng rng(1);
  for (int v = 0; v < n; ++v) sketch.AddEdge(v, (v + 1) % n);
  std::vector<std::pair<int, int>> chords;
  while (chords.size() < 32) {
    const int u = static_cast<int>(rng.UniformInt(n));
    const int w = static_cast<int>(rng.UniformInt(n));
    if (u == w || (u + 1) % n == w || (w + 1) % n == u) continue;
    chords.emplace_back(u, w);
    sketch.AddEdge(u, w);
  }
  PrintRow({"phase", "edges", "connected"});
  PrintRule(3);
  PrintRow({"cycle+chords", I(n + 32), sketch.IsConnected() ? "yes" : "NO"});
  // Delete every chord: still connected through the cycle.
  for (const auto& [u, w] : chords) sketch.RemoveEdge(u, w);
  PrintRow({"chords deleted", I(n), sketch.IsConnected() ? "yes" : "NO"});
  // Delete two cycle edges: splits into two components.
  sketch.RemoveEdge(0, 1);
  sketch.RemoveEdge(32, 33);
  PrintRow({"cycle cut twice", I(n - 2),
            sketch.CountComponents() == 2 ? "2 comps" : "WRONG"});
  std::printf("(linear measurements track deletions exactly — the property\n"
              " insertion-only samplers cannot offer)\n");
}

void TableC() {
  PrintBanner("AGM/C", "Distributed merge: per-server sketches vs truth");
  PrintRow({"servers", "comp truth", "comp merged", "sketch bits",
            "ship-edges bits"});
  PrintRule(5);
  Rng rng(7);
  const UndirectedGraph g =
      RandomUndirectedGraph(128, 0.05, 1.0, 1.0, false, rng);
  for (int servers : {2, 4, 8}) {
    std::vector<AgmConnectivitySketch> parts;
    for (int s = 0; s < servers; ++s) {
      parts.emplace_back(128, 8, 2025);
    }
    Rng assign(static_cast<uint64_t>(servers));
    for (const Edge& e : g.edges()) {
      parts[assign.UniformInt(static_cast<uint64_t>(servers))].AddEdge(
          e.src, e.dst);
    }
    AgmConnectivitySketch merged = parts[0];
    for (int s = 1; s < servers; ++s) merged.MergeFrom(parts[s]);
    int64_t total_bits = 0;
    for (const auto& part : parts) total_bits += part.SizeInBits();
    PrintRow({I(servers), I(CountComponents(g)),
              I(merged.CountComponents()), I(total_bits),
              I(SerializedSizeInBits(g))});
  }
  std::printf("(component counts agree; sketch communication is fixed by n\n"
              " and the number of servers, independent of m)\n");
}

void BM_AgmAddEdge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  AgmConnectivitySketch sketch(n, 0, 1);
  Rng rng(2);
  for (auto _ : state) {
    const int u = static_cast<int>(rng.UniformInt(n));
    int v = static_cast<int>(rng.UniformInt(n));
    if (u == v) v = (v + 1) % n;
    sketch.AddEdge(u, v);
  }
}
// 512 is the ingest default (bench_stream, bench_e2e's ingest workload).
BENCHMARK(BM_AgmAddEdge)->Arg(64)->Arg(256)->Arg(512);

void BM_AgmSpanningForest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const UndirectedGraph g =
      RandomUndirectedGraph(n, 4.0 / n, 1.0, 1.0, true, rng);
  const AgmConnectivitySketch sketch = SketchGraph(g, 0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.SpanningForest());
  }
}
BENCHMARK(BM_AgmSpanningForest)->Arg(64)->Arg(128)->Arg(512);

// 4 edge-disjoint shard sketches (by lower endpoint, as StreamIngestor
// shards) of a random graph.
std::vector<AgmConnectivitySketch> ShardSketches(int n) {
  constexpr int kShards = 4;
  Rng rng(4);
  const UndirectedGraph g =
      RandomUndirectedGraph(n, 4.0 / n, 1.0, 1.0, true, rng);
  std::vector<AgmConnectivitySketch> shards(kShards,
                                            AgmConnectivitySketch(n, 0, 6));
  for (const Edge& e : g.edges()) {
    shards[static_cast<size_t>(std::min(e.src, e.dst) % kShards)].AddEdge(
        e.src, e.dst);
  }
  return shards;
}

// The epoch seal's sum: the shard sketches summed into the ingestor's kept
// seal sketch with the digest folded in the same sweep (AssignSum).
void BM_AgmMergeShards(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<AgmConnectivitySketch> shards = ShardSketches(n);
  std::vector<const AgmConnectivitySketch*> parts;
  for (const AgmConnectivitySketch& shard : shards) parts.push_back(&shard);
  AgmConnectivitySketch seal(n, 0, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seal.AssignSum(parts));
  }
}
BENCHMARK(BM_AgmMergeShards)->Arg(512);

// The epoch seal's forest: Boruvka in the summed sketch's own cells (the
// rvalue SpanningForest). The sum re-fills the consumed cells outside the
// timed region.
void BM_AgmSpanningForestInPlace(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<AgmConnectivitySketch> shards = ShardSketches(n);
  std::vector<const AgmConnectivitySketch*> parts;
  for (const AgmConnectivitySketch& shard : shards) parts.push_back(&shard);
  AgmConnectivitySketch seal(n, 0, 6);
  for (auto _ : state) {
    state.PauseTiming();
    benchmark::DoNotOptimize(seal.AssignSum(parts));
    state.ResumeTiming();
    benchmark::DoNotOptimize(std::move(seal).SpanningForest());
  }
}
BENCHMARK(BM_AgmSpanningForestInPlace)->Arg(512);

}  // namespace dcs

int main(int argc, char** argv) {
  const std::string out_path = dcs::bench::ConsumeOutFlag(
      &argc, argv, "BENCH_agm_sketch.json");
  dcs::TableA();
  dcs::TableB();
  dcs::TableC();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dcs::bench::WriteBenchJson(out_path, dcs::JsonValue::MakeObject());
  return 0;
}
