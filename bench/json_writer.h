// Shared machine-readable output for the bench binaries.
//
// Every bench writes a BENCH_<name>.json next to its console tables
// (override the path with --out FILE). The file is built from util/json's
// deterministic JsonValue writer and always carries two standard blocks:
//   "machine"  — hardware_concurrency
//   "metrics"  — the process-wide metrics registry snapshot (DESIGN.md §8),
//                so every run records its resource counts (cut queries,
//                serialized bits, parallel-loop balance) alongside timings.
// Benches with experiment tables (bench_cutquery) add their own members
// before the standard blocks are appended.

#ifndef DCS_BENCH_JSON_WRITER_H_
#define DCS_BENCH_JSON_WRITER_H_

#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "util/json.h"
#include "util/metrics.h"

namespace dcs::bench {

// Parses and strips "<flag> VALUE" / "<flag>=VALUE" from argv so the
// remaining arguments can go straight to benchmark::Initialize (which
// rejects flags it does not know). Returns `fallback` when the flag is
// absent.
inline std::string ConsumeStringFlag(int* argc, char** argv,
                                     const std::string& flag,
                                     std::string fallback) {
  std::string value = std::move(fallback);
  const std::string prefix = flag + "=";
  int write = 1;
  for (int read = 1; read < *argc; ++read) {
    const std::string arg = argv[read];
    if (arg == flag && read + 1 < *argc) {
      value = argv[++read];
    } else if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
    } else {
      argv[write++] = argv[read];
    }
  }
  *argc = write;
  return value;
}

// "--out FILE": where the bench writes its BENCH_<name>.json.
inline std::string ConsumeOutFlag(int* argc, char** argv,
                                  std::string fallback) {
  return ConsumeStringFlag(argc, argv, "--out", std::move(fallback));
}

// std::thread::hardware_concurrency() with its "0 = unknown" escape hatch
// folded to a usable value: every caller that sizes a pool or a sweep wants
// "at least one thread", not zero. All bench/CLI thread-count defaults go
// through here instead of re-implementing the fallback.
inline int HardwareConcurrencyOrOne() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw < 1 ? 1 : static_cast<int>(hw);
}

inline JsonValue MachineBlock() {
  JsonValue machine = JsonValue::MakeObject();
  machine.Set("hardware_concurrency",
              static_cast<int64_t>(HardwareConcurrencyOrOne()));
  return machine;
}

// The metrics registry snapshot plus whether instrumentation was compiled
// in (an OFF build legitimately reports empty counters).
inline JsonValue MetricsBlock() {
  JsonValue block = JsonValue::MakeObject();
  block.Set("enabled", DCS_METRICS_ENABLED != 0);
  const metrics::MetricsSnapshot snapshot = metrics::Registry::Get().Snapshot();
  const JsonValue snapshot_json = snapshot.ToJson();
  block.Set("counters", *snapshot_json.Find("counters"));
  block.Set("distributions", *snapshot_json.Find("distributions"));
  return block;
}

// Appends the standard "machine" and "metrics" blocks to `root` and writes
// it to `path` (pretty-printed, trailing newline). Returns false and warns
// on stderr if the file cannot be written.
inline bool WriteBenchJson(const std::string& path, JsonValue root) {
  root.Set("machine", MachineBlock());
  root.Set("metrics", MetricsBlock());
  const std::string text = root.Dump(2) + "\n";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (std::fclose(out) != 0 || !ok) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace dcs::bench

#endif  // DCS_BENCH_JSON_WRITER_H_
