// Experiment SERVE — the batched cut-query serving layer.
//
// Three sections:
//   A: AnswerBatch on a repeated-subset workload, cold cache vs warm cache
//      — the memoization win, with the bit-identity check (a warm answer
//      must equal the cold one exactly).
//   B: for-each decode through the service (DecodeForEachBits) cold vs
//      warm, checked bit-for-bit against the per-bit session path.
//   D: the multi-process cluster soak under SIGKILL chaos.
//
// Results are printed as tables and written to BENCH_serve.json (override
// with --out FILE).

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "json_writer.h"
#include "lowerbound/foreach_encoding.h"
#include "serve/cut_query_service.h"
#include "serve/decoder_batch.h"
#include "serve/load_driver.h"
#include "table.h"
#include "util/random.h"

namespace dcs {

using bench::F;
using bench::I;
using bench::PrintBanner;
using bench::PrintRow;
using bench::PrintRule;

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct CacheRecord {
  int n = 0;
  int64_t edges = 0;
  int batch = 0;
  int distinct = 0;
  double ms_cold = 0;
  double ms_warm = 0;
  bool identical = false;
  double speedup() const { return ms_warm > 0 ? ms_cold / ms_warm : 0; }
};

std::vector<CacheRecord> SectionWarmVsCold() {
  PrintBanner("SERVE/A",
              "AnswerBatch on repeated subsets: cold cache vs warm cache");
  PrintRow({"n", "edges", "batch", "distinct", "cold(ms)", "warm(ms)",
            "speedup", "identical"});
  PrintRule(8);
  std::vector<CacheRecord> records;
  for (const int n : {128, 256, 512}) {
    Rng rng(101 + static_cast<uint64_t>(n));
    const DirectedGraph graph = RandomBalancedDigraph(n, 0.3, 2.0, rng);
    CacheRecord record;
    record.n = n;
    record.edges = graph.num_edges();
    record.distinct = 64;
    record.batch = 2048;

    // The cold baseline is a cache-disabled service: with the cache on,
    // even the first batch is mostly warm (2048 queries over 64 sides hit
    // within the batch), which would understate the memoization win.
    CutQueryServiceOptions no_cache;
    no_cache.enable_cache = false;
    CutQueryService cold_service(no_cache);
    CutQueryService warm_service;
    const auto cold_object = cold_service.RegisterGraph(graph);
    const auto warm_object = warm_service.RegisterGraph(graph);
    std::vector<VertexSet> sides;
    while (static_cast<int>(sides.size()) < record.distinct) {
      VertexSet side(static_cast<size_t>(n));
      for (auto& bit : side) bit = static_cast<uint8_t>(rng.Next() & 1);
      if (IsProperCutSide(side)) sides.push_back(std::move(side));
    }
    std::vector<CutQueryService::Query> cold_batch, warm_batch;
    for (int i = 0; i < record.batch; ++i) {
      const VertexSet& side = sides[static_cast<size_t>(i) % sides.size()];
      cold_batch.push_back({cold_object, side});
      warm_batch.push_back({warm_object, side});
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<double> cold = cold_service.AnswerBatch(cold_batch);
    record.ms_cold = MsSince(t0);

    warm_service.AnswerBatch(warm_batch);  // prime the cache
    // Best-of-3 passes of 5 reps: the perf gate tracks ms_warm, and a
    // single pass on a shared core is exposed to scheduler steal.
    constexpr int kWarmReps = 5;
    constexpr int kPasses = 3;
    std::vector<double> warm;
    record.ms_warm = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      const auto t1 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kWarmReps; ++rep) {
        warm = warm_service.AnswerBatch(warm_batch);
      }
      record.ms_warm = std::min(record.ms_warm, MsSince(t1) / kWarmReps);
    }
    record.identical = warm == cold;

    PrintRow({I(record.n), I(record.edges), I(record.batch),
              I(record.distinct), F(record.ms_cold, 3), F(record.ms_warm, 3),
              F(record.speedup(), 1), record.identical ? "yes" : "NO"});
    records.push_back(record);
  }
  std::printf(
      "(a cached answer is still a logical query — the cache changes how\n"
      " many queries reach the backend, never the count or the bits)\n");
  return records;
}

struct DecodeRecord {
  int n = 0;
  int64_t bits = 0;
  double ms_cold = 0;
  double ms_warm = 0;
  bool matches_sessions = false;
  double speedup() const { return ms_warm > 0 ? ms_cold / ms_warm : 0; }
};

DecodeRecord SectionForEachDecode() {
  PrintBanner("SERVE/B",
              "For-each decode through the service: one batched call per "
              "sweep, cold vs warm");
  ForEachLowerBoundParams params;
  params.inv_epsilon = 16;
  params.sqrt_beta = 2;
  params.num_layers = 2;
  Rng rng(77);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  const ForEachDecoder decoder(params);

  DecodeRecord record;
  record.n = params.num_vertices();
  record.bits = params.total_bits();
  std::vector<int64_t> qs;
  for (int64_t q = 0; q < params.total_bits(); ++q) qs.push_back(q);

  CutQueryService service;
  const auto object = service.RegisterGraph(encoding.graph);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<int8_t> cold =
      DecodeForEachBits(decoder, qs, service, object);
  record.ms_cold = MsSince(t0);
  // Best-of-3 for gate stability; warm decodes are cache hits, so every
  // pass returns the same bits.
  std::vector<int8_t> warm;
  record.ms_warm = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    const auto t1 = std::chrono::steady_clock::now();
    warm = DecodeForEachBits(decoder, qs, service, object);
    record.ms_warm = std::min(record.ms_warm, MsSince(t1));
  }

  // Reference: the per-bit incremental-session path.
  const CutOracle oracle = ExactCutOracle(encoding.graph);
  record.matches_sessions = warm == cold;
  for (size_t i = 0; i < qs.size() && record.matches_sessions; ++i) {
    record.matches_sessions =
        cold[i] == decoder.DecodeBit(qs[static_cast<int64_t>(i)], oracle);
  }

  PrintRow({"n", "bits", "cold(ms)", "warm(ms)", "speedup", "match"});
  PrintRule(6);
  PrintRow({I(record.n), I(record.bits), F(record.ms_cold, 3),
            F(record.ms_warm, 3), F(record.speedup(), 1),
            record.matches_sessions ? "yes" : "NO"});
  return record;
}

struct ClusterRecord {
  double kill_rate = 0;
  bool ran = false;
  std::string error;
  ClusterLoadReport report;
};

std::vector<ClusterRecord> SectionClusterChaos() {
  PrintBanner("SERVE/D",
              "Multi-process cluster soak: 4 workers, R=2 replication, "
              "SIGKILL chaos, bit-identity gated");
  PrintRow({"kill%", "ok", "unavail", "exhaust", "kills", "respawn",
            "p50(us)", "p99(us)", "qps", "identical"});
  PrintRule(10);
  std::vector<ClusterRecord> records;
  for (const double kill_rate : {0.0, 0.05, 0.2}) {
    ClusterRecord record;
    record.kill_rate = kill_rate;
    char dir_template[] = "/tmp/dcs_bench_cluster_XXXXXX";
    char* socket_dir = ::mkdtemp(dir_template);
    if (socket_dir == nullptr) {
      record.error = "mkdtemp failed";
      records.push_back(std::move(record));
      continue;
    }
    ClusterLoadOptions options;
    options.server_binary = DCS_SERVER_PATH;
    options.socket_dir = socket_dir;
    options.num_workers = 4;
    options.replication = 2;
    options.num_client_threads = 2;
    // Enough batches that the run spans many kill ticks: at the observed
    // per-batch round trip this is a few hundred milliseconds of load, so
    // a 5 ms Bernoulli tick at 20% actually lands kills mid-traffic.
    options.batches_per_thread = 400;
    options.batch_size = 8;
    options.kill_rate = kill_rate;
    options.kill_interval_ms = 5;
    options.respawn_delay_ms = 5;
    options.num_vertices = 48;
    options.num_edges = 320;
    options.seed = 4242;
    const auto report = RunClusterLoad(options);
    for (int w = 0; w < options.num_workers; ++w) {
      ::unlink((options.socket_dir + "/worker" + std::to_string(w) + ".sock")
                   .c_str());
    }
    ::rmdir(socket_dir);
    if (!report.ok()) {
      record.error = report.status().ToString();
      std::printf("kill_rate %.2f: soak failed to run: %s\n", kill_rate,
                  record.error.c_str());
      records.push_back(std::move(record));
      continue;
    }
    record.ran = true;
    record.report = *report;
    PrintRow({F(kill_rate * 100, 0), I(report->batches_ok),
              I(report->batches_unavailable),
              I(report->batches_resource_exhausted), I(report->kills),
              I(report->respawns), I(report->latency_p50_us),
              I(report->latency_p99_us), F(report->qps, 0),
              report->answers_bit_identical() ? "yes" : "NO"});
    records.push_back(std::move(record));
  }
  std::printf(
      "(every completed answer is compared bit-for-bit against a\n"
      " single-process oracle; kills surface only as kUnavailable and\n"
      " backpressure only as kResourceExhausted)\n");
  return records;
}

void WriteJson(const std::string& path,
               const std::vector<CacheRecord>& cache_records,
               const DecodeRecord& decode_record,
               const std::vector<ClusterRecord>& cluster_records) {
  JsonValue root = JsonValue::MakeObject();
  JsonValue cache_json = JsonValue::MakeArray();
  for (const CacheRecord& r : cache_records) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("n", r.n);
    entry.Set("edges", r.edges);
    entry.Set("batch", r.batch);
    entry.Set("distinct_sides", r.distinct);
    entry.Set("ms_cold", r.ms_cold);
    entry.Set("ms_warm", r.ms_warm);
    entry.Set("speedup", r.speedup());
    entry.Set("identical", r.identical);
    cache_json.Append(std::move(entry));
  }
  root.Set("warm_vs_cold", std::move(cache_json));
  JsonValue decode_json = JsonValue::MakeObject();
  decode_json.Set("n", decode_record.n);
  decode_json.Set("bits", decode_record.bits);
  decode_json.Set("ms_cold", decode_record.ms_cold);
  decode_json.Set("ms_warm", decode_record.ms_warm);
  decode_json.Set("speedup", decode_record.speedup());
  decode_json.Set("matches_sessions", decode_record.matches_sessions);
  root.Set("foreach_decode", std::move(decode_json));
  JsonValue cluster_json = JsonValue::MakeArray();
  for (const ClusterRecord& r : cluster_records) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("kill_rate", r.kill_rate);
    entry.Set("ran", r.ran);
    if (!r.ran) {
      entry.Set("error", r.error);
      entry.Set("answers_bit_identical", false);
      cluster_json.Append(std::move(entry));
      continue;
    }
    entry.Set("batches_ok", r.report.batches_ok);
    entry.Set("batches_unavailable", r.report.batches_unavailable);
    entry.Set("batches_resource_exhausted",
              r.report.batches_resource_exhausted);
    entry.Set("batches_other_error", r.report.batches_other_error);
    entry.Set("wrong_bits", r.report.wrong_bits);
    entry.Set("answers_bit_identical", r.report.answers_bit_identical());
    entry.Set("kills", r.report.kills);
    entry.Set("respawns", r.report.respawns);
    entry.Set("p50_us", r.report.latency_p50_us);
    entry.Set("p99_us", r.report.latency_p99_us);
    entry.Set("qps", r.report.qps);
    cluster_json.Append(std::move(entry));
  }
  root.Set("cluster", std::move(cluster_json));
  bench::WriteBenchJson(path, std::move(root));
}

}  // namespace dcs

int main(int argc, char** argv) {
  const std::string out_path =
      dcs::bench::ConsumeOutFlag(&argc, argv, "BENCH_serve.json");
  const auto cache_records = dcs::SectionWarmVsCold();
  const auto decode_record = dcs::SectionForEachDecode();
  const auto cluster_records = dcs::SectionClusterChaos();
  dcs::WriteJson(out_path, cache_records, decode_record, cluster_records);
  return 0;
}
