// Experiment CUTQ — the cut-query fast path, measured against live
// reference implementations of the pre-optimization code paths.
//
// Three layers are measured head-to-head in one binary:
//   A: for-all enumerate-mode decode — O(m)-rescan-per-candidate (the old
//      std::prev_permutation path, reproduced via an oracle without
//      incremental sessions) vs revolving-door enumeration over
//      incremental O(deg) flips.
//   B: TensorSignMatrix::EncodeSigns — per-row vectors + column copies
//      (reference) vs the flat row-major 2-D FWHT.
//   C: seed-deterministic trial parallelism — RunForAllTrials wall time vs
//      thread count, with the bit-identical-to-serial check.
//
// Results are printed as tables and written to BENCH_cutquery.json
// (override with --out FILE). --threads N caps the thread sweep.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "json_writer.h"
#include "lowerbound/forall_encoding.h"
#include "table.h"
#include "util/hadamard.h"
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

struct EnumerateRecord {
  int k = 0;
  double subsets = 0;
  double ms_rescan = 0;
  double ms_incremental = 0;
  bool same_subset = false;
  double speedup() const {
    return ms_incremental > 0 ? ms_rescan / ms_incremental : 0;
  }
};

std::vector<EnumerateRecord> SectionEnumerate() {
  PrintBanner("CUTQ/A",
              "Enumerate-mode decode: O(m) rescan per candidate vs "
              "revolving-door incremental flips");
  PrintRow({"k", "subsets", "rescan(ms)", "incr(ms)", "speedup", "agree"});
  PrintRule(6);
  std::vector<EnumerateRecord> records;
  for (const int inv_eps_sq : {8, 12, 16}) {
    ForAllLowerBoundParams params;
    params.inv_epsilon_sq = inv_eps_sq;
    params.beta = 1;
    params.num_layers = 2;
    EnumerateRecord record;
    record.k = params.layer_size();
    record.subsets = 1;
    for (int i = 1; i <= record.k / 2; ++i) {
      record.subsets *= static_cast<double>(record.k - i + 1) / i;
    }
    Rng rng(91 + static_cast<uint64_t>(inv_eps_sq));
    GapHammingParams gh;
    gh.num_strings = static_cast<int>(params.total_strings());
    gh.string_length = params.inv_epsilon_sq;
    const GapHammingInstance instance = SampleGapHammingInstance(gh, rng);
    const DirectedGraph graph = ForAllEncoder(params).Encode(instance.s);
    const ForAllDecoder decoder(params);
    // The "before" oracle: identical values, but constructed from a bare
    // query function, so BeginSession falls back to a full CutWeight scan
    // per candidate — the seed's cost model.
    const CutOracle rescan_oracle =
        [&graph](const VertexSet& side) { return graph.CutWeight(side); };
    const CutOracle incremental_oracle = ExactCutOracle(graph);
    const auto mode = ForAllDecoder::SubsetSelection::kEnumerate;
    const int reps = inv_eps_sq <= 12 ? 20 : 5;
    VertexSet subset_rescan, subset_incremental;
    // Best-of-3 timing passes: the perf gate compares these numbers
    // across runs, and a single pass on a shared core is exposed to
    // scheduler steal that dwarfs the 15% threshold.
    constexpr int kPasses = 3;
    record.ms_rescan = std::numeric_limits<double>::infinity();
    record.ms_incremental = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        subset_rescan = decoder.SelectBestSubset(instance.index, instance.t,
                                                 rescan_oracle, mode);
      }
      record.ms_rescan = std::min(record.ms_rescan, MsSince(t0) / reps);
      const auto t1 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        subset_incremental = decoder.SelectBestSubset(
            instance.index, instance.t, incremental_oracle, mode);
      }
      record.ms_incremental =
          std::min(record.ms_incremental, MsSince(t1) / reps);
    }
    record.same_subset = subset_rescan == subset_incremental;
    PrintRow({I(record.k), F(record.subsets, 0), F(record.ms_rescan, 3),
              F(record.ms_incremental, 3), F(record.speedup(), 1),
              record.same_subset ? "yes" : "NO"});
    records.push_back(record);
  }
  std::printf(
      "(candidates are identical either way; the fast path replaces the\n"
      " per-candidate O(m) rescan with two O(deg) flips)\n");
  return records;
}

// The pre-optimization EncodeSigns: an N×N matrix of per-row vectors,
// row-wise FWHT, then an explicit copy-out/copy-back per column.
std::vector<int64_t> ReferenceEncodeSigns(const TensorSignMatrix& tensor,
                                          const std::vector<int8_t>& z) {
  const size_t n = static_cast<size_t>(tensor.block_size());
  std::vector<std::vector<int64_t>> matrix(n, std::vector<int64_t>(n, 0));
  for (int64_t t = 0; t < tensor.rows(); ++t) {
    const auto [i, j] = tensor.RowFactors(t);
    matrix[static_cast<size_t>(i)][static_cast<size_t>(j)] =
        z[static_cast<size_t>(t)];
  }
  for (size_t i = 0; i < n; ++i) {
    FastWalshHadamardTransform(matrix[i]);
  }
  std::vector<int64_t> column(n);
  for (size_t b = 0; b < n; ++b) {
    for (size_t a = 0; a < n; ++a) column[a] = matrix[a][b];
    FastWalshHadamardTransform(column);
    for (size_t a = 0; a < n; ++a) matrix[a][b] = column[a];
  }
  std::vector<int64_t> x(n * n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) x[a * n + b] = matrix[a][b];
  }
  return x;
}

struct EncodeRecord {
  int log_size = 0;
  double ms_reference = 0;
  double ms_flat = 0;
  bool match = false;
  double speedup() const {
    return ms_flat > 0 ? ms_reference / ms_flat : 0;
  }
};

std::vector<EncodeRecord> SectionEncodeSigns() {
  PrintBanner("CUTQ/B",
              "EncodeSigns: per-row vectors + column copies vs flat "
              "row-major 2-D FWHT");
  PrintRow({"log N", "N", "ref(ms)", "flat(ms)", "speedup", "match"});
  PrintRule(6);
  std::vector<EncodeRecord> records;
  for (const int log_size : {5, 7, 9}) {
    const TensorSignMatrix tensor(log_size);
    Rng rng(17 + static_cast<uint64_t>(log_size));
    const std::vector<int8_t> z =
        rng.RandomSignString(static_cast<int>(tensor.rows()));
    EncodeRecord record;
    record.log_size = log_size;
    const int reps = log_size <= 7 ? 50 : 10;
    std::vector<int64_t> reference, flat;
    // Best-of-3 passes for gate stability (see SectionEnumerate).
    constexpr int kPasses = 3;
    record.ms_reference = std::numeric_limits<double>::infinity();
    record.ms_flat = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        reference = ReferenceEncodeSigns(tensor, z);
      }
      record.ms_reference = std::min(record.ms_reference, MsSince(t0) / reps);
      const auto t1 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        flat = tensor.EncodeSigns(z);
      }
      record.ms_flat = std::min(record.ms_flat, MsSince(t1) / reps);
    }
    record.match = reference == flat;
    PrintRow({I(log_size), I(1 << log_size), F(record.ms_reference, 3),
              F(record.ms_flat, 3), F(record.speedup(), 1),
              record.match ? "yes" : "NO"});
    records.push_back(record);
  }
  return records;
}

struct ThreadRecord {
  int threads = 0;
  double ms = 0;
  int64_t correct = 0;
};

struct ParallelismResult {
  int trials = 0;
  bool identical = true;
  std::vector<ThreadRecord> records;
};

ParallelismResult SectionParallelism(int max_threads) {
  PrintBanner("CUTQ/C",
              "Trial parallelism: RunForAllTrials wall time vs threads "
              "(seed-deterministic)");
  ForAllLowerBoundParams params;
  params.inv_epsilon_sq = 16;
  params.beta = 2;
  params.num_layers = 2;
  const SeededCutOracleFactory factory = [](const DirectedGraph& g,
                                            Rng& rng) -> CutOracle {
    return NoisyCutOracle(g, 0.01, rng);
  };
  ParallelismResult result;
  result.trials = 48;
  PrintRow({"threads", "correct", "time(ms)", "speedup"});
  PrintRule(4);
  double ms_serial = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    const auto t0 = std::chrono::steady_clock::now();
    const ForAllTrialResult batch =
        RunForAllTrials(params, result.trials, 4242, factory,
                        ForAllDecoder::SubsetSelection::kGreedy, threads);
    ThreadRecord record;
    record.threads = threads;
    record.ms = MsSince(t0);
    record.correct = batch.correct;
    if (threads == 1) ms_serial = record.ms;
    if (!result.records.empty() &&
        record.correct != result.records.front().correct) {
      result.identical = false;
    }
    PrintRow({I(threads), I(record.correct), F(record.ms, 1),
              F(record.ms > 0 ? ms_serial / record.ms : 0, 2)});
    result.records.push_back(record);
  }
  std::printf("results identical across thread counts: %s\n",
              result.identical ? "yes" : "NO (BUG)");
  return result;
}

void WriteJson(const std::string& path,
               const std::vector<EnumerateRecord>& enumerate_records,
               const std::vector<EncodeRecord>& encode_records,
               const ParallelismResult& parallelism) {
  JsonValue root = JsonValue::MakeObject();
  JsonValue enumerate_json = JsonValue::MakeArray();
  for (const EnumerateRecord& r : enumerate_records) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("k", r.k);
    entry.Set("subsets", r.subsets);
    entry.Set("ms_rescan", r.ms_rescan);
    entry.Set("ms_incremental", r.ms_incremental);
    entry.Set("speedup", r.speedup());
    entry.Set("same_subset", r.same_subset);
    enumerate_json.Append(std::move(entry));
  }
  root.Set("enumerate_decode", std::move(enumerate_json));
  JsonValue encode_json = JsonValue::MakeArray();
  for (const EncodeRecord& r : encode_records) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("log_size", r.log_size);
    entry.Set("ms_reference", r.ms_reference);
    entry.Set("ms_flat", r.ms_flat);
    entry.Set("speedup", r.speedup());
    entry.Set("match", r.match);
    encode_json.Append(std::move(entry));
  }
  root.Set("encode_signs", std::move(encode_json));
  JsonValue parallelism_json = JsonValue::MakeObject();
  parallelism_json.Set("trials", parallelism.trials);
  parallelism_json.Set("results_identical", parallelism.identical);
  JsonValue sweep = JsonValue::MakeArray();
  for (const ThreadRecord& r : parallelism.records) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("threads", r.threads);
    entry.Set("ms", r.ms);
    entry.Set("correct", r.correct);
    sweep.Append(std::move(entry));
  }
  parallelism_json.Set("sweep", std::move(sweep));
  root.Set("trial_parallelism", std::move(parallelism_json));
  bench::WriteBenchJson(path, std::move(root));
}

}  // namespace dcs

int main(int argc, char** argv) {
  int threads = dcs::bench::ConsumeThreadsFlag(&argc, argv);
  if (threads == 1) {
    const int hw = dcs::bench::HardwareConcurrencyOrOne();
    threads = hw > 1 ? (hw > 8 ? 8 : hw) : 2;
  }
  const std::string out_path =
      dcs::bench::ConsumeOutFlag(&argc, argv, "BENCH_cutquery.json");
  const auto enumerate_records = dcs::SectionEnumerate();
  const auto encode_records = dcs::SectionEncodeSigns();
  const auto parallelism = dcs::SectionParallelism(threads);
  dcs::WriteJson(out_path, enumerate_records, encode_records, parallelism);
  return 0;
}
